#include "compiler/schedule.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "icu/barrier.hh"

namespace tsp {

void
ScheduledProgram::release()
{
    released_ = size();
    std::vector<ScheduledInst>().swap(events_); // Frees the storage.
}

void
ScheduledProgram::panicReleased(const char *who)
{
    panic("ScheduledProgram::%s: the program is sealed: its events "
          "were freed when a session bound its lowering",
          who);
}

std::size_t
ScheduledProgram::instructionCount(const AsmProgram &prog)
{
    std::size_t n = 0;
    for (const auto &[id, q] : prog.queues)
        n += q.size();
    return n;
}

AsmProgram
ScheduledProgram::toAsm(bool with_preamble,
                        bool compress_repeats) const
{
    if (released_)
        panicReleased("toAsm");
    // Group by queue, then sort each queue by time.
    std::map<int, std::vector<const ScheduledInst *>> by_queue;
    for (const auto &e : events_)
        by_queue[e.icu.id].push_back(&e);

    if (with_preamble) {
        // Every participating queue takes part in the barrier.
        for (int i = 0; i < kNumIcus; ++i)
            by_queue[i]; // Ensure the section exists.
    }

    AsmProgram out;
    for (auto &[icu_id, list] : by_queue) {
        std::stable_sort(list.begin(), list.end(),
                         [](const ScheduledInst *a,
                            const ScheduledInst *b) {
                             return a->cycle < b->cycle;
                         });
        std::vector<Instruction> &queue = out.queues[icu_id];
        Cycle t = 0;          // Next free dispatch cycle.
        Cycle last = ~Cycle{0}; // Cycle of the previous event.
        bool co_issued = false;
        if (with_preamble) {
            Instruction pre;
            if (icu_id == 0) {
                pre.op = Opcode::Notify; // The designated notifier.
                queue.push_back(pre);
                t = 1;
            } else {
                pre.op = Opcode::Sync;
                queue.push_back(pre);
                t = kBarrierLatency; // Dispatch resumes at release.
            }
        }
        for (std::size_t i = 0; i < list.size();) {
            const ScheduledInst *e = list[i];
            if (e->cycle + 1 == t && e->cycle == last) {
                // Second event in the same cycle: legal only as a MEM
                // dual-issue (read one bank + write the other).
                if (IcuId{icu_id}.kind() != SliceKind::MEM ||
                    co_issued) {
                    panic("schedule: %s over-issued at cycle %llu "
                          "(%s after %s)",
                          IcuId{icu_id}.name().c_str(),
                          static_cast<unsigned long long>(e->cycle),
                          e->inst.toString().c_str(),
                          queue.back().toString().c_str());
                }
                Instruction co = e->inst;
                co.flags |= Instruction::kFlagCoIssue;
                queue.push_back(co);
                co_issued = true;
                ++i;
                continue;
            }
            if (e->cycle < t) {
                panic("schedule: %s double-booked at cycle %llu "
                      "(%s vs previous instruction)",
                      IcuId{icu_id}.name().c_str(),
                      static_cast<unsigned long long>(e->cycle),
                      e->inst.toString().c_str());
            }
            if (e->cycle > t) {
                Instruction nop;
                nop.op = Opcode::Nop;
                nop.imm0 = static_cast<std::uint32_t>(e->cycle - t);
                queue.push_back(nop);
                t = e->cycle;
            }

            // Repeat compression: a run of identical instructions at
            // a uniform cadence becomes [inst, (NOP d-1), Repeat].
            std::size_t run_len = 1;
            Cycle gap = 0;
            if (compress_repeats && i + 1 < list.size() &&
                list[i + 1]->cycle > e->cycle) {
                gap = list[i + 1]->cycle - e->cycle;
                while (i + run_len < list.size()) {
                    const ScheduledInst *n = list[i + run_len];
                    const ScheduledInst *p = list[i + run_len - 1];
                    if (!(n->inst == e->inst) ||
                        n->cycle != p->cycle + gap) {
                        break;
                    }
                    ++run_len;
                }
                // The event after the run must not co-issue with the
                // run's tail (cannot express that after a Repeat).
                if (i + run_len < list.size() &&
                    list[i + run_len]->cycle ==
                        list[i + run_len - 1]->cycle) {
                    --run_len;
                }
            }

            if (run_len >= 4) {
                queue.push_back(e->inst);
                if (gap > 1) {
                    Instruction nop;
                    nop.op = Opcode::Nop;
                    nop.imm0 = static_cast<std::uint32_t>(gap - 1);
                    queue.push_back(nop);
                }
                Instruction rep;
                rep.op = Opcode::Repeat;
                rep.imm0 = static_cast<std::uint32_t>(run_len - 1);
                rep.imm1 = static_cast<std::uint32_t>(gap);
                queue.push_back(rep);
                const Cycle last_fire =
                    e->cycle + gap * static_cast<Cycle>(run_len - 1);
                t = last_fire + 1;
                last = last_fire;
                co_issued = false;
                i += run_len;
                continue;
            }

            queue.push_back(e->inst);
            t += 1;
            last = e->cycle;
            co_issued = false;
            ++i;
        }
    }
    return out;
}

std::string
ScheduledProgram::gantt(Cycle from, Cycle to) const
{
    if (released_)
        panicReleased("gantt");
    TSP_ASSERT(to > from);
    // Collect involved queues in id order.
    std::map<int, std::set<Cycle>> marks;
    for (const auto &e : events_) {
        if (e.cycle >= from && e.cycle < to)
            marks[e.icu.id].insert(e.cycle);
    }

    std::ostringstream os;
    os << strformat("%-12s ", "cycle");
    // Column header every 10 cycles.
    for (Cycle c = from; c < to; ++c)
        os << (c % 10 == 0 ? '|' : ' ');
    os << '\n';
    for (const auto &[icu_id, cols] : marks) {
        os << strformat("%-12s ", IcuId{icu_id}.name().c_str());
        for (Cycle c = from; c < to; ++c)
            os << (cols.count(c) ? '#' : '.');
        os << '\n';
    }
    return os.str();
}

std::string
ScheduledProgram::listing() const
{
    if (released_)
        panicReleased("listing");
    std::vector<const ScheduledInst *> sorted;
    sorted.reserve(events_.size());
    for (const auto &e : events_)
        sorted.push_back(&e);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ScheduledInst *a, const ScheduledInst *b) {
                         if (a->cycle != b->cycle)
                             return a->cycle < b->cycle;
                         return a->icu.id < b->icu.id;
                     });
    std::ostringstream os;
    for (const ScheduledInst *e : sorted) {
        os << strformat("%8llu  %-12s %s\n",
                        static_cast<unsigned long long>(e->cycle),
                        e->icu.name().c_str(),
                        e->inst.toString().c_str());
    }
    return os.str();
}

} // namespace tsp
