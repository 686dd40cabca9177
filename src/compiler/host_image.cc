#include "compiler/host_image.hh"

#include <cstring>

#include "common/logging.hh"
#include "mem/ecc.hh"
#include "sim/chip.hh"

namespace tsp {

void
HostImage::push(const GlobalAddr &addr, Vec320 word)
{
    eccComputeVec(word);
    entries_.push_back({addr, word});
}

void
HostImage::add(const GlobalAddr &addr,
               const std::array<std::uint8_t, kLanes> &bytes)
{
    Vec320 w;
    w.bytes = bytes;
    push(addr, w);
}

void
HostImage::addInt8(const GlobalAddr &addr, const std::int8_t *values,
                   int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    Vec320 w;
    for (int i = 0; i < count; ++i)
        w.bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(values[i]);
    push(addr, w);
}

void
HostImage::addInt32Quad(const GlobalAddr quad[4],
                        const std::int32_t *values, int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    for (int k = 0; k < 4; ++k) {
        Vec320 w;
        for (int i = 0; i < count; ++i) {
            const auto u = static_cast<std::uint32_t>(values[i]);
            w.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
        }
        push(quad[k], w);
    }
}

void
HostImage::addFp32Quad(const GlobalAddr quad[4], const float *values,
                       int count)
{
    TSP_ASSERT(count >= 0 && count <= kLanes);
    for (int k = 0; k < 4; ++k) {
        Vec320 w;
        for (int i = 0; i < count; ++i) {
            std::uint32_t u;
            std::memcpy(&u, &values[i], sizeof(u));
            w.bytes[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>((u >> (8 * k)) & 0xff);
        }
        push(quad[k], w);
    }
}

void
HostImage::applyTo(Chip &chip) const
{
    for (const Entry &e : entries_) {
        chip.mem(e.addr.hem, e.addr.slice)
            .backdoorWriteEncoded(e.addr.addr, e.word);
    }
}

} // namespace tsp
