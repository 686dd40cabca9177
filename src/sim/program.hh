/**
 * @file
 * The form in which chips load an assembled program.
 *
 * A SharedProgram is an immutable AsmProgram shared by every chip that
 * runs it, together with its hashProgram() content hash. Chips borrow
 * it: Chip::loadProgram() keeps a reference and points the instruction
 * queues at its per-ICU instruction vectors, so a reload copies
 * nothing. The hash is computed once, by the owner that assembles the
 * program (a BatchProgramCache compile, an InferenceSession or
 * PodBackend constructor), and travels with the program — a serving
 * worker that rebinds among many programs never rehashes one.
 */

#ifndef TSP_SIM_PROGRAM_HH
#define TSP_SIM_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <utility>

#include "isa/assembler.hh"
#include "sim/snapshot.hh"

namespace tsp {

/** An assembled program plus its content hash, shared read-only. */
class SharedProgram
{
  public:
    SharedProgram() = default;

    /** Shares @p code and hashes it (the one hash it ever gets). A
     *  null @p code stays null; Chip::loadProgram() refuses it. */
    explicit SharedProgram(std::shared_ptr<const AsmProgram> code)
        : code_(std::move(code)), hash_(code_ ? hashProgram(*code_) : 0)
    {
    }

    /** Takes ownership of @p code and hashes it. */
    explicit SharedProgram(AsmProgram code)
        : SharedProgram(
              std::make_shared<const AsmProgram>(std::move(code)))
    {
    }

    /** @return the program (null when default-constructed). */
    const AsmProgram *get() const { return code_.get(); }
    const AsmProgram *operator->() const { return code_.get(); }

    /** @return hashProgram() of the program, computed at creation. */
    std::uint64_t hash() const { return hash_; }

    explicit operator bool() const { return code_ != nullptr; }

  private:
    std::shared_ptr<const AsmProgram> code_;
    std::uint64_t hash_ = 0;
};

} // namespace tsp

#endif // TSP_SIM_PROGRAM_HH
