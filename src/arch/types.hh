/**
 * @file
 * Fundamental architectural types shared by every module: cycles,
 * directions, stream identifiers, and the 320-byte vector that is the
 * TSP's unit of data movement.
 */

#ifndef TSP_ARCH_TYPES_HH
#define TSP_ARCH_TYPES_HH

#include <array>
#include <cstdint>

namespace tsp {

/** Core-clock cycle count. */
using Cycle = std::uint64_t;

/**
 * Sentinel "no scheduled event" cycle for the event-driven simulation
 * core: next-event queries return this when a unit cannot act again
 * without external stimulus (a Notify broadcast, a new program).
 */
inline constexpr Cycle kNoEventCycle = ~Cycle{0};

/** Logical stream identifier, 0..31 within a direction. */
using StreamId = std::uint8_t;

/** X coordinate of a slice / stream-register location on a superlane. */
using SlicePos = int;

/** Word address within a MEM slice (13 bits: 0..8191). */
using MemAddr = std::uint32_t;

/**
 * Dataflow direction along a superlane.
 *
 * Eastward streams increase in X; westward streams decrease in X. The
 * paper also uses inward/outward relative to the chip bisection; those
 * are resolved to East/West by the layout helpers.
 */
enum class Direction : std::uint8_t { East = 0, West = 1 };

/** @return the opposite direction. */
constexpr Direction
opposite(Direction d)
{
    return d == Direction::East ? Direction::West : Direction::East;
}

/** Hemisphere of the chip, split at the central VXM. */
enum class Hemisphere : std::uint8_t { West = 0, East = 1 };

/** @return "east" / "west". */
constexpr const char *
hemName(Hemisphere h)
{
    return h == Hemisphere::East ? "east" : "west";
}

/** Supported element data types for tensors and streams. */
enum class DType : std::uint8_t { Int8, Int16, Int32, Fp16, Fp32 };

/** @return the element size in bytes (== number of streams occupied). */
constexpr int
dtypeBytes(DType t)
{
    switch (t) {
      case DType::Int8:
        return 1;
      case DType::Int16:
      case DType::Fp16:
        return 2;
      case DType::Int32:
      case DType::Fp32:
        return 4;
    }
    return 1;
}

/** @return a short human-readable name. */
constexpr const char *
dtypeName(DType t)
{
    switch (t) {
      case DType::Int8:
        return "int8";
      case DType::Int16:
        return "int16";
      case DType::Int32:
        return "int32";
      case DType::Fp16:
        return "fp16";
      case DType::Fp32:
        return "fp32";
    }
    return "?";
}

/** Number of lanes across the chip (maxVL). */
inline constexpr int kLanes = 320;

/** Lanes per superlane (minVL). */
inline constexpr int kLanesPerSuperlane = 16;

/** Superlanes (tiles per functional slice). */
inline constexpr int kSuperlanes = 20;

/** Logical streams per direction per lane. */
inline constexpr int kStreamsPerDir = 32;

/** MEM word size in bytes (one tile's 128-bit word). */
inline constexpr int kWordBytes = 16;

/** ECC check bits per 128-bit word (SECDED). */
inline constexpr int kEccBits = 9;

/**
 * A full-width 320-byte vector with per-word ECC.
 *
 * Each of the 20 superlane words (16 bytes) carries a 9-bit SECDED
 * code, generated by the producing slice and checked by consumers
 * (see mem/ecc.hh). A default-constructed vector is all-zero with
 * valid ECC for zero data.
 */
struct Vec320
{
    /** The 320 data bytes; byte b belongs to lane b. */
    std::array<std::uint8_t, kLanes> bytes{};

    /** 9-bit SECDED code per 16-byte superlane word. */
    std::array<std::uint16_t, kSuperlanes> ecc{};

    /** @return the byte for (superlane, lane-within-superlane). */
    std::uint8_t
    at(int superlane, int lane) const
    {
        return bytes[static_cast<std::size_t>(
            superlane * kLanesPerSuperlane + lane)];
    }

    /** Sets the byte for (superlane, lane-within-superlane). */
    void
    set(int superlane, int lane, std::uint8_t v)
    {
        bytes[static_cast<std::size_t>(
            superlane * kLanesPerSuperlane + lane)] = v;
    }

    bool operator==(const Vec320 &other) const = default;
};

} // namespace tsp

#endif // TSP_ARCH_TYPES_HH
