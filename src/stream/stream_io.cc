#include "stream/stream_io.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "mem/ecc.hh"
#include "mem/fault.hh"

namespace tsp {

StreamIo::StreamIo(const ChipConfig &cfg, StreamFabric &fabric,
                   std::string owner)
    : cfg_(cfg), fabric_(fabric), owner_(std::move(owner))
{
}

const Vec320 *
StreamIo::missed(StreamRef s, SlicePos pos)
{
    if (cfg_.strictStreams) {
        panic("%s: no value flowing on %s at pos %d, cycle %llu "
              "(scheduler bug)",
              owner_.c_str(), s.toString().c_str(), pos,
              static_cast<unsigned long long>(fabric_.now()));
    }
    ++missed_;
    static const Vec320 kZero{};
    return &kZero;
}

void
StreamIo::checkReplayUntagged(StreamRef s, SlicePos pos)
{
    const StreamFabric::Sample in = fabric_.sample(s, pos);
    if (in.vec && in.tag == kTapeUntagged) {
        panic("%s: replay consume on %s at pos %d, cycle %llu would "
              "sample a fabric entry written outside any StreamIo "
              "(kTapeUntagged) — the tape cannot reproduce it, so "
              "replay would silently read stale arena state",
              owner_.c_str(), s.toString().c_str(), pos,
              static_cast<unsigned long long>(fabric_.now()));
    }
}

const Vec320 *
StreamIo::tryConsume(StreamRef s, SlicePos pos, Vec320 &scratch)
{
    if (TapeReplayer *rep = fabric_.tapeReplayer()) {
        // Replay tier: the tape says which produce (if any) this
        // consume sampled. The consumer-side ECC check is skipped —
        // replay is only ever taken for fault-free recordings whose
        // check came back clean on every operand.
        if (fabric_.validEntries() != 0)
            checkReplayUntagged(s, pos);
        const Vec320 *v = nullptr;
        rep->onConsumeRun(&v, 1);
        if (v)
            ++consumed_;
        return v;
    }
    const StreamFabric::Sample in = fabric_.sample(s, pos);
    if (TapeRecorder *rec = fabric_.tapeRecorder())
        rec->onConsume(in.vec ? in.tag : kTapeMiss);
    if (!in.vec)
        return nullptr;
    ++consumed_;
    FaultInjector *fi = fabric_.faultInjector();
    // Fault-free, the register is read in place when the check would
    // pass: publish() computed its codes from these bytes (no register
    // changes within a cycle), or a compare that writes nothing finds
    // them equal. A mismatch is checked, and corrected, in the copy.
    if (!fi && (in.encoded || eccCodesMatch(*in.vec)))
        return in.vec;
    scratch = *in.vec;
    if (fi) {
        // Stream-hop upset on the consumed copy; the check below is
        // the consumer-side SECDED check that must catch it.
        fi->onStreamConsume(scratch);
    }
    switch (eccCheckVec(scratch)) {
      case EccStatus::Ok:
        break;
      case EccStatus::Corrected:
        ++corrected_;
        break;
      case EccStatus::Uncorrectable:
        ++uncorrectable_;
        if (MachineCheckSink *mc = fabric_.machineCheckSink()) {
            // Condemn the chip: corrupted data must never flow into
            // a result as a silent success.
            mc->raise(fabric_.now(), owner_,
                      strformat("uncorrectable stream error on %s at "
                                "pos %d",
                                s.toString().c_str(), pos));
        } else {
            warn("%s: uncorrectable stream error on %s at pos %d",
                 owner_.c_str(), s.toString().c_str(), pos);
        }
        break;
    }
    return &scratch;
}

const Vec320 *
StreamIo::consumeRef(StreamRef s, SlicePos pos, Vec320 &scratch)
{
    const Vec320 *v = tryConsume(s, pos, scratch);
    return v ? v : missed(s, pos);
}

void
StreamIo::consumeRun(StreamRef base, SlicePos pos, Vec320 *scratch,
                     const Vec320 **outs, std::size_t n)
{
    TapeReplayer *rep = fabric_.tapeReplayer();
    if (!rep) {
        for (std::size_t i = 0; i < n; ++i)
            outs[i] = consumeRef(nth(base, i), pos, scratch[i]);
        return;
    }
    if (fabric_.validEntries() != 0) {
        for (std::size_t i = 0; i < n; ++i)
            checkReplayUntagged(nth(base, i), pos);
    }
    rep->onConsumeRun(outs, n);
    for (std::size_t i = 0; i < n; ++i) {
        if (outs[i])
            ++consumed_;
        else
            outs[i] = missed(nth(base, i), pos);
    }
}

void
StreamIo::produceRaw(StreamRef s, SlicePos pos, const Vec320 &vec,
                     Cycle when)
{
    produceInPlace<1>(s, pos, when, /*keep_codes=*/true,
                      [&](Vec320 *const *out) { *out[0] = vec; });
}

void
StreamIo::publish(StreamRef s, SlicePos pos, StreamFabric::SlotId id,
                  Cycle when, bool encode)
{
    if (encode)
        eccComputeVec(fabric_.slot(id));
    std::uint32_t tag = kTapeUntagged;
    if (TapeRecorder *rec = fabric_.tapeRecorder())
        tag = rec->onProduce();
    fabric_.scheduleSlot(s, pos, id, when, owner_.c_str(), tag, encode);
    ++produced_;
}

} // namespace tsp
