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
    std::uint32_t tag = kTapeUntagged;
    if (fabric_.peek(s, pos, &tag) && tag == kTapeUntagged) {
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
    std::uint32_t tag = kTapeUntagged;
    const Vec320 *v = fabric_.peek(s, pos, &tag);
    if (TapeRecorder *rec = fabric_.tapeRecorder())
        rec->onConsume(v ? tag : kTapeMiss);
    if (!v)
        return nullptr;
    scratch = *v;
    ++consumed_;
    if (FaultInjector *fi = fabric_.faultInjector()) {
        // Stream-hop upset on the consumed copy; the check below is
        // the consumer-side SECDED check that must catch it.
        fi->onStreamConsume(scratch);
    }
    if (cfg_.eccEnabled) {
        switch (eccCheckVec(scratch)) {
          case EccStatus::Ok:
            break;
          case EccStatus::Corrected:
            ++corrected_;
            break;
          case EccStatus::Uncorrectable:
            ++uncorrectable_;
            if (MachineCheckSink *mc = fabric_.machineCheckSink()) {
                // Condemn the chip: corrupted data must never flow
                // into a result as a silent success.
                mc->raise(fabric_.now(), owner_,
                          strformat("uncorrectable stream error on "
                                    "%s at pos %d",
                                    s.toString().c_str(), pos));
            } else {
                warn("%s: uncorrectable stream error on %s at pos %d",
                     owner_.c_str(), s.toString().c_str(), pos);
            }
            break;
        }
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

Vec320
StreamIo::consume(StreamRef s, SlicePos pos)
{
    Vec320 out;
    const Vec320 *v = consumeRef(s, pos, out);
    if (v != &out)
        out = *v;
    return out;
}

void
StreamIo::produce(StreamRef s, SlicePos pos, Vec320 vec, Cycle when)
{
    emit(s, pos, vec, when, /*encode=*/true);
}

void
StreamIo::produceRaw(StreamRef s, SlicePos pos, Vec320 vec, Cycle when)
{
    emit(s, pos, vec, when, /*encode=*/false);
}

void
StreamIo::emit(StreamRef s, SlicePos pos, Vec320 &vec, Cycle when,
               bool encode)
{
    if (TapeReplayer *rep = fabric_.tapeReplayer()) {
        // Replay tier: skip the SECDED encode. No consumer on this
        // path checks codes, and the MEM slices regenerate them at
        // store time, so the encode's only observable effects are
        // reproduced for free.
        *rep->onProduce() = vec;
        ++produced_;
        return;
    }
    publish(s, pos, vec, when, encode);
}

void
StreamIo::publish(StreamRef s, SlicePos pos, Vec320 &vec, Cycle when,
                  bool encode)
{
    if (encode && cfg_.eccEnabled)
        eccComputeVec(vec);
    std::uint32_t tag = kTapeUntagged;
    if (TapeRecorder *rec = fabric_.tapeRecorder())
        tag = rec->onProduce();
    fabric_.scheduleWrite(s, pos, vec, when, owner_.c_str(), tag);
    ++produced_;
}

} // namespace tsp
