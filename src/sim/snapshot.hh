/**
 * @file
 * Deterministic chip snapshot/restore.
 *
 * A ChipSnapshot is a bit-identical serialization of the full
 * architectural state of one chip at a quiesce point (between steps,
 * outside a trace replay): MEM slices with their SECDED check
 * bits, stream registers and in-flight fabric writes, ICU queue
 * positions, MXM accumulators and weight-install state, SXM/VXM
 * latches and counters (from which energy follows), barrier state,
 * C2C link flight, machine-check latch and fault-injector RNG
 * streams.
 *
 * The format is versioned little-endian binary with an FNV-1a content
 * hash over the payload. Three environment hashes gate restore:
 *
 *  - configHash: the chip configuration, EXCLUDING fastForwardEnabled
 *    (snapshots restore across execution tiers — that is the point of
 *    the differential suite) and EXCLUDING the fault seed (migration
 *    restores onto a chip rebuilt with a derived seed).
 *  - programHash: content hash of the loaded program. Programs are
 *    not serialized; restore requires the same program loaded, which
 *    keeps snapshots small and matches the serving path where the
 *    model is installed separately.
 *  - faultEnvHash: fault rates + scheduled events, EXCLUDING the
 *    seed. A snapshot restores onto a chip with a different fault
 *    seed (migration) but never onto one with a different fault
 *    *environment* — that would silently change the experiment.
 *
 * Restore with the SAME fault seed additionally restores the RNG
 * stream positions, making the restored run bit-identical to the
 * uninterrupted one. Restore with a different seed keeps the target
 * chip's fresh streams so a migrated batch does not deterministically
 * replay the upset that condemned the source chip.
 */

#ifndef TSP_SIM_SNAPSHOT_HH
#define TSP_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/types.hh"

namespace tsp {

struct AsmProgram;
struct Instruction;

/** One chip's serialized state plus the hashes that gate restore. */
struct ChipSnapshot
{
    /** "TSPS" — identifies the container. */
    static constexpr std::uint32_t kMagic = 0x54535053u;

    /** Bumped on any incompatible payload-layout change. */
    static constexpr std::uint32_t kVersion = 3;

    /** Chip configuration hash (see file comment for exclusions). */
    std::uint64_t configHash = 0;

    /** Content hash of the program loaded when the snapshot was taken. */
    std::uint64_t programHash = 0;

    /** Fault environment hash (rates + events, seed excluded). */
    std::uint64_t faultEnvHash = 0;

    /** Fault seed of the source chip (same-seed restore resumes RNGs). */
    std::uint64_t faultSeed = 0;

    /** Chip clock at the quiesce point. */
    Cycle cycle = 0;

    /** Serialized unit state (opaque; layout owned by Chip). */
    std::vector<std::uint8_t> payload;

    /** @return FNV-1a hash of the payload. */
    std::uint64_t payloadHash() const;

    /** @return the framed binary image (header + payload + hash). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parses a framed image produced by serialize(), verifying magic,
     * version and payload hash.
     *
     * @return false with @p err set (when non-null) on any mismatch.
     */
    static bool deserialize(const std::uint8_t *data, std::size_t size,
                            ChipSnapshot &out, std::string *err);
};

/** A pod's state: one snapshot per member chip, in ring order. */
struct PodSnapshot
{
    std::vector<ChipSnapshot> chips;
};

/**
 * @return content hash of @p program: every non-empty queue's ICU id,
 * length and instruction fields (shared lane maps hashed by content).
 * Also used by the serving trace cache as an ABA-safe fingerprint.
 */
std::uint64_t hashProgram(const AsmProgram &program);

/** @return hashProgram() folded over one instruction (exposed for
 *  incremental hashing by program builders). */
std::uint64_t hashInstruction(std::uint64_t h, const Instruction &inst);

/**
 * @return hash of the restore-relevant chip configuration. Excludes
 * fastForwardEnabled (cross-tier restore) and the entire fault config
 * (covered by hashFaultEnv + the seed policy).
 */
std::uint64_t hashChipConfig(const ChipConfig &cfg);

/** @return hash of fault rates + scheduled events; seed excluded. */
std::uint64_t hashFaultEnv(const FaultConfig &fault);

} // namespace tsp

#endif // TSP_SIM_SNAPSHOT_HH
