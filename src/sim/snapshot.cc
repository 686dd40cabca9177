#include "sim/snapshot.hh"

#include <cstring>

#include "c2c/pod.hh"
#include "common/logging.hh"
#include "common/snapshot_io.hh"
#include "isa/assembler.hh"
#include "sim/chip.hh"

namespace tsp {

namespace {

/** Folds one little-endian u64 into an FNV-1a chain. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return fnv1a64(b, sizeof(b), h);
}

/** Folds a double by bit pattern (configs are exact values, never
 *  computed, so bit equality is the right identity). */
std::uint64_t
mixF(std::uint64_t h, double d)
{
    std::uint64_t v;
    static_assert(sizeof(v) == sizeof(d));
    std::memcpy(&v, &d, sizeof(v));
    return mix(h, v);
}

bool
fail(std::string *err, const char *msg)
{
    if (err != nullptr)
        *err = msg;
    return false;
}

} // namespace

std::uint64_t
hashInstruction(std::uint64_t h, const Instruction &inst)
{
    h = mix(h, static_cast<std::uint64_t>(inst.op));
    h = mix(h, inst.imm0);
    h = mix(h, inst.imm1);
    h = mix(h, inst.addr);
    for (const StreamRef &s : {inst.srcA, inst.srcB, inst.dst}) {
        h = mix(h, s.id);
        h = mix(h, static_cast<std::uint64_t>(s.dir));
    }
    h = mix(h, inst.groupSize);
    h = mix(h, static_cast<std::uint64_t>(inst.dtype));
    h = mix(h, inst.flags);
    if (inst.map) {
        // By content, not pointer: two programs sharing a map hash
        // equal to two programs with identical private copies.
        h = mix(h, inst.map->size());
        for (const std::uint16_t e : *inst.map)
            h = mix(h, e);
    } else {
        h = mix(h, ~std::uint64_t{0});
    }
    return h;
}

std::uint64_t
hashProgram(const AsmProgram &program)
{
    std::uint64_t h = kFnv1aBasis;
    for (const auto &[icu_id, insts] : program.queues) {
        if (insts.empty())
            continue;
        h = mix(h, static_cast<std::uint64_t>(icu_id));
        h = mix(h, insts.size());
        for (const Instruction &inst : insts)
            h = hashInstruction(h, inst);
    }
    return h;
}

std::uint64_t
hashChipConfig(const ChipConfig &cfg)
{
    std::uint64_t h = kFnv1aBasis;
    h = mixF(h, cfg.clockHz);
    h = mix(h, static_cast<std::uint64_t>(cfg.activeSuperlanes));
    h = mix(h, cfg.strictStreams);
    // fastForwardEnabled deliberately excluded: execution tiers are
    // bit-identical, so a snapshot from a per-cycle run restores onto
    // a fast-forwarding chip and vice versa.
    h = mixF(h, cfg.power.mxmMaccPj);
    h = mixF(h, cfg.power.vxmOpPj);
    h = mixF(h, cfg.power.streamHopPj);
    h = mixF(h, cfg.power.sramWordPj);
    h = mixF(h, cfg.power.sxmBytePj);
    h = mixF(h, cfg.power.icuDispatchPj);
    h = mixF(h, cfg.power.superlaneStaticW);
    h = mixF(h, cfg.power.uncoreStaticW);
    return h;
}

std::uint64_t
hashFaultEnv(const FaultConfig &fault)
{
    std::uint64_t h = kFnv1aBasis;
    h = mixF(h, fault.memReadRate);
    h = mixF(h, fault.memWriteRate);
    h = mixF(h, fault.streamRate);
    h = mixF(h, fault.c2cRate);
    h = mixF(h, fault.doubleBitFraction);
    h = mix(h, fault.events.size());
    for (const FaultEvent &e : fault.events) {
        h = mix(h, e.cycle);
        h = mix(h, static_cast<std::uint64_t>(e.slice));
        h = mix(h, e.addr);
        h = mix(h, static_cast<std::uint64_t>(e.chunk));
        h = mix(h, static_cast<std::uint64_t>(e.bit));
    }
    return h;
}

std::uint64_t
ChipSnapshot::payloadHash() const
{
    return fnv1a64(payload.data(), payload.size());
}

std::vector<std::uint8_t>
ChipSnapshot::serialize() const
{
    SnapshotWriter w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.u64(configHash);
    w.u64(programHash);
    w.u64(faultEnvHash);
    w.u64(faultSeed);
    w.u64(cycle);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u64(payloadHash());
    return w.take();
}

bool
ChipSnapshot::deserialize(const std::uint8_t *data, std::size_t size,
                          ChipSnapshot &out, std::string *err)
{
    SnapshotReader r(data, size);
    if (r.u32() != kMagic)
        return fail(err, "snapshot: bad magic");
    if (r.u32() != kVersion)
        return fail(err, "snapshot: unsupported version");
    out.configHash = r.u64();
    out.programHash = r.u64();
    out.faultEnvHash = r.u64();
    out.faultSeed = r.u64();
    out.cycle = r.u64();
    const std::uint64_t n = r.u64();
    if (!r.ok() || n > size)
        return fail(err, "snapshot: truncated header");
    out.payload.resize(static_cast<std::size_t>(n));
    r.bytes(out.payload.data(), out.payload.size());
    const std::uint64_t stored = r.u64();
    if (!r.ok())
        return fail(err, "snapshot: truncated payload");
    if (!r.atEnd())
        return fail(err, "snapshot: trailing bytes");
    if (stored != out.payloadHash())
        return fail(err, "snapshot: payload hash mismatch");
    return true;
}

bool
Chip::snapshot(ChipSnapshot &out, std::string *err) const
{
    // Quiesce rule: the replay tier redirects stream traffic through
    // side structures a snapshot cannot see.
    if (fabric_.tapeReplayer() != nullptr)
        return fail(err, "snapshot: replay in progress");

    SnapshotWriter w;
    fabric_.saveState(w);
    barrier_.saveState(w);
    w.u32(static_cast<std::uint32_t>(queues_.size()));
    for (const auto &q : queues_)
        q.saveState(w);
    w.u32(static_cast<std::uint32_t>(memSlices_.size()));
    for (const auto &s : memSlices_)
        s.saveState(w);
    vxm_->saveState(w);
    for (const auto &p : mxm_)
        p->saveState(w);
    for (const auto &s : sxm_)
        s->saveState(w);
    c2c_->saveState(w);
    memIo_->saveState(w);
    w.b(faults_ != nullptr);
    if (faults_)
        faults_->saveState(w);
    mcheck_->saveState(w);
    w.u64(ifetches_);
    w.u64(dispatchedAdjust_);
    w.u64(nopAdjust_);
    w.u64(parkedAdjust_);
    w.b(lastStepQuiet_);
    w.u64(sramAccesses_);

    out.configHash = hashChipConfig(cfg_);
    out.programHash = program_.hash();
    out.faultEnvHash = hashFaultEnv(cfg_.fault);
    out.faultSeed = cfg_.fault.seed;
    out.cycle = now();
    out.payload = w.take();
    return true;
}

bool
Chip::restore(const ChipSnapshot &snap, std::string *err)
{
    if (fabric_.tapeReplayer() != nullptr)
        return fail(err, "restore: replay in progress");
    if (snap.configHash != hashChipConfig(cfg_))
        return fail(err, "restore: chip configuration mismatch");
    if (snap.programHash != program_.hash()) {
        return fail(err, "restore: program mismatch (load the "
                         "snapshot's program first)");
    }
    if (snap.faultEnvHash != hashFaultEnv(cfg_.fault))
        return fail(err, "restore: fault environment mismatch");

    // The unit decoders write as they read, so decode onto a scratch
    // chip first: a refused payload must leave this chip untouched.
    // Restore runs on migration only, so the second pass is cheap.
    {
        Chip scratch(cfg_);
        if (program_)
            scratch.loadProgram(program_);
        if (!scratch.decodePayload(snap, err))
            return false;
    }
    const bool decoded = decodePayload(snap, err);
    TSP_ASSERT(decoded);
    rebuildLive();
    return true;
}

bool
Chip::decodePayload(const ChipSnapshot &snap, std::string *err)
{
    // Same seed: resume the RNG streams exactly where the snapshot
    // left them (bit-identical continuation). Different seed: this is
    // a migration onto a rebuilt chip — keep its fresh streams so the
    // upset that condemned the source is not deterministically
    // replayed, but still restore the event cursor and counters.
    const bool restore_rng =
        faults_ != nullptr && snap.faultSeed == cfg_.fault.seed;

    SnapshotReader r(snap.payload.data(), snap.payload.size());
    fabric_.loadState(r);
    barrier_.loadState(r);
    if (r.u32() != queues_.size())
        return fail(err, "restore: queue count mismatch");
    for (auto &q : queues_)
        q.loadState(r);
    if (r.u32() != memSlices_.size())
        return fail(err, "restore: MEM slice count mismatch");
    for (auto &s : memSlices_)
        s.loadState(r);
    vxm_->loadState(r);
    for (const auto &p : mxm_)
        p->loadState(r);
    for (const auto &s : sxm_)
        s->loadState(r);
    c2c_->loadState(r);
    memIo_->loadState(r);
    const bool have_faults = r.b();
    if (have_faults != (faults_ != nullptr))
        return fail(err, "restore: fault injector presence mismatch");
    if (faults_)
        faults_->loadState(r, restore_rng);
    mcheck_->loadState(r);
    ifetches_ = r.u64();
    dispatchedAdjust_ = r.u64();
    nopAdjust_ = r.u64();
    parkedAdjust_ = r.u64();
    lastStepQuiet_ = r.b();
    sramAccesses_ = r.u64();

    // Short, or a unit decoder refused a value no save produces.
    if (!r.ok())
        return fail(err, "restore: truncated or malformed payload");
    if (!r.atEnd())
        return fail(err, "restore: trailing payload bytes");
    // The header's cycle is untrusted input, like the payload.
    if (now() != snap.cycle)
        return fail(err, "restore: cycle mismatch");
    return true;
}

bool
Pod::snapshot(PodSnapshot &out, std::string *err) const
{
    out.chips.clear();
    out.chips.resize(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) {
        if (!chip(i).snapshot(out.chips[static_cast<std::size_t>(i)],
                              err)) {
            return false;
        }
    }
    return true;
}

bool
Pod::restore(const PodSnapshot &snap, std::string *err)
{
    if (static_cast<int>(snap.chips.size()) != size())
        return fail(err, "restore: pod size mismatch");
    for (int i = 0; i < size(); ++i) {
        if (!chip(i).restore(snap.chips[static_cast<std::size_t>(i)],
                             err)) {
            return false;
        }
    }
    return true;
}

} // namespace tsp
