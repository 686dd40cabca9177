#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least p of the
    // samples at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<double>
chunkMsPerRequest(std::vector<Completion> done, std::int64_t from_ns)
{
    constexpr std::size_t kChunks = 16;
    std::erase_if(done,
                  [from_ns](const Completion &c) { return c.atNs < from_ns; });
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.atNs < b.atNs;
              });
    const std::size_t per = done.size() / kChunks;
    std::vector<double> out;
    for (std::size_t i = 0; per > 0 && i < kChunks; ++i) {
        std::int64_t sum = 0;
        for (std::size_t j = i * per; j < (i + 1) * per; ++j)
            sum += done[j].busyCpuNs;
        out.push_back(static_cast<double>(sum) * 1e-6 /
                      static_cast<double>(per));
    }
    return out;
}

double
peakRssMiB()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB -> MiB.
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

SpanLog::Scope::Scope(SpanLog *log, const char *name,
                      std::uint64_t request)
    : log_(log)
{
    if (log_ == nullptr)
        return;
    ThreadBuf &tb = log_->local();
    span_.name = name;
    span_.id = log_->nextId_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = tb.open.empty() ? 0 : tb.open.back();
    span_.request = request;
    span_.thread = tb.thread;
    tb.open.push_back(span_.id);
    span_.startNs = nowNs();
}

SpanLog::Scope::~Scope()
{
    if (log_ == nullptr)
        return;
    span_.endNs = nowNs();
    ThreadBuf &tb = log_->local();
    tb.open.pop_back();
    tb.spans.push_back(span_);
}

SpanLog::ThreadBuf &
SpanLog::local()
{
    // One buffer per (thread, log); a thread normally meets one log.
    thread_local const SpanLog *owner = nullptr;
    thread_local ThreadBuf *buf = nullptr;
    if (owner != this) {
        std::lock_guard<std::mutex> lock(mu_);
        bufs_.push_back(std::make_unique<ThreadBuf>());
        buf = bufs_.back().get();
        buf->thread = static_cast<std::uint32_t>(bufs_.size() - 1);
        owner = this;
    }
    return *buf;
}

std::vector<Span>
SpanLog::collect() const
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &b : bufs_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs
                                      : a.id < b.id;
    });
    return all;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name, std::int64_t from_ns,
                     std::int64_t to_ns) const
{
    std::vector<double> out;
    for (const Span &s : collect()) {
        if (name == s.name && s.startNs >= from_ns && s.startNs < to_ns)
            out.push_back(s.ms());
    }
    return out;
}

double
SpanLog::totalMs(const std::string &name, std::int64_t from_ns,
                 std::int64_t to_ns) const
{
    double total = 0.0;
    for (double d : durationsMs(name, from_ns, to_ns))
        total += d;
    return total;
}

std::map<std::string, double>
SpanLog::selfMsByLayer() const
{
    const std::vector<Span> all = collect();
    // Children of one span run on its thread, nested and sequential,
    // so the part of a span they cover is the sum of their durations.
    std::unordered_map<std::uint64_t, double> child_ms;
    for (const Span &s : all) {
        if (s.parent != 0)
            child_ms[s.parent] += s.ms();
    }
    std::map<std::string, double> self;
    for (const Span &s : all) {
        const std::string name(s.name);
        const std::string layer = name.substr(0, name.find('.'));
        const auto it = child_ms.find(s.id);
        self[layer] += s.ms() - (it == child_ms.end() ? 0.0 : it->second);
    }
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = collect();
    const std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
    tsp::JsonWriter j;
    j.beginObject().key("traceEvents").beginArray();
    for (const Span &s : all) {
        j.beginObject()
            .kv("name", s.name)
            .kv("ph", "X")
            .kv("pid", 1)
            .kv("tid", static_cast<std::uint64_t>(s.thread))
            .kv("ts", static_cast<double>(s.startNs - t0) * 1e-3)
            .kv("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        j.key("args")
            .beginObject()
            .kv("id", s.id)
            .kv("parent", s.parent)
            .kv("request", s.request)
            .endObject();
        j.endObject();
    }
    j.endArray().endObject();
    return tsp::writeJsonFile(path, j.str());
}

void
addSpanLayers(const SpanLog &spans, std::int64_t from_ns,
              std::int64_t to_ns, int engine_threads, Report &rep)
{
    auto p50 = [&](const char *name, double scale) {
        return median(spans.durationsMs(name, from_ns, to_ns)) * scale;
    };
    // Set-up calls, from the last set-up.
    auto last = [&](const char *name) {
        const std::vector<double> d = spans.durationsMs(name);
        return d.empty() ? 0.0 : d.back();
    };
    rep.layers["model.build_ms"] = last("model.build");
    rep.layers["compiler.lower_ms"] = last("compiler.lower");
    rep.layers["isa.asm_ms"] = last("isa.asm");
    rep.layers["runtime.construct_ms"] = last("runtime.construct");
    rep.layers["runtime.reset_ms.p50"] = p50("runtime.reset", 1.0);
    rep.layers["runtime.write_ms.p50"] = p50("runtime.write", 1.0);
    rep.layers["runtime.read_ms.p50"] = p50("runtime.read", 1.0);
    rep.layers["runtime.run_us.p50"] = p50("runtime.run", 1e3);
    rep.layers["runtime.reset_batch_us.p50"] =
        p50("runtime.reset_batch", 1e3);
    if (to_ns > from_ns && engine_threads > 0) {
        rep.layers["runtime.engine_busy_share"] =
            spans.totalMs("runtime.run", from_ns, to_ns) * 1e6 /
            (static_cast<double>(to_ns - from_ns) * engine_threads);
    }
}

} // namespace perfbench
