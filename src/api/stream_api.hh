/**
 * @file
 * A small user-facing builder mirroring the paper's groq.api listings
 * (Listing 1: streaming add; Listing 2: transpose16 with explicit
 * memory management). Tensors are [rows x 320] int8 arrays striped
 * over 16 MEM slices; each operation is compiled into exactly-timed
 * Read / VXM / SXM / Write instruction chains and executed on a chip
 * instance by run().
 *
 * This facade exists for quickstarts and ISA-level experiments; real
 * models use graph/Graph + compiler/Lowering.
 */

#ifndef TSP_API_STREAM_API_HH
#define TSP_API_STREAM_API_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/builder.hh"
#include "sim/chip.hh"

namespace tsp::api {

/** Opaque handle to a program tensor. */
struct TensorHandle
{
    int id = -1;
};

/** Result of Program::run(). */
struct RunInfo
{
    Cycle cycles = 0;           ///< Total program cycles.
    std::uint64_t instructions = 0; ///< Dispatched chip-wide.
};

/** A stream program under construction. */
class Program
{
  public:
    Program();
    ~Program();

    /** Allocates an int8 tensor of @p rows 320-byte vectors. */
    TensorHandle tensor(int rows);

    /** Allocates and fills with seeded uniform int8 data. */
    TensorHandle randomTensor(int rows, std::uint64_t seed);

    /** Sets tensor contents (row-major, rows x 320 bytes). */
    void setData(TensorHandle t,
                 const std::vector<std::int8_t> &data);

    /**
     * z = sat_int8(x + y), element-wise — the paper's Listing 1
     * producer-consumer chain: two MEM reads feed a VXM add whose
     * result streams back to memory with no GPR round trips.
     */
    TensorHandle add(TensorHandle x, TensorHandle y);

    /** z = max(0, x) via the VXM ReLU slice. */
    TensorHandle relu(TensorHandle x);

    /**
     * Transposes each aligned group of 16 rows as a 16x16 byte tile
     * per superlane through the SXM (Listing 2). Rows must be a
     * multiple of 16.
     */
    TensorHandle transpose16(TensorHandle x);

    /** Compiles, loads, and runs the program on a fresh chip. */
    RunInfo run();

    /** Reads a tensor back after run(). */
    std::vector<std::int8_t> read(TensorHandle t) const;

    /** @return the built chip (valid after run()). */
    Chip &chip();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace tsp::api

#endif // TSP_API_STREAM_API_HH
