#include "decomp/exact.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "decomp/exact_decide.hpp"
#include "runtime/fault_inject.hpp"

namespace bdsmaj::decomp {

namespace {

using detail::kInputTt;
using detail::tt_mask;

std::uint64_t op_tt(ExactOp op, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    switch (op) {
        case ExactOp::kAnd: return a & b;
        case ExactOp::kOr: return a | b;
        case ExactOp::kXor: return a ^ b;
        case ExactOp::kMaj: return (a & b) | (a & c) | (b & c);
        case ExactOp::kMux: return (a & b) | (~a & c);  // a ? b : c
    }
    return 0;
}

}  // namespace

std::uint64_t WideStructure::eval_tt() const {
    const std::uint64_t mask = tt_mask(num_inputs);
    std::vector<std::uint64_t> value;
    value.reserve(gates.size());
    const auto resolve = [&](const WideRef& r) -> std::uint64_t {
        if (r.is_const()) return r.complemented ? mask : 0;
        const std::uint64_t v =
            r.is_input()
                ? (kInputTt[r.index] & mask)
                : value[static_cast<std::size_t>(r.index - WideRef::kGateBase)];
        return r.complemented ? (~v & mask) : v;
    };
    for (const WideGate& g : gates) {
        value.push_back(op_tt(g.op, resolve(g.a), resolve(g.b), resolve(g.c)) & mask);
    }
    return resolve(output);
}

ExactSynthesisCache& ExactSynthesisCache::instance() {
    static ExactSynthesisCache cache;
    return cache;
}

bool ExactSynthesisCache::slot_of(int num_inputs, std::size_t* slot) {
    if (num_inputs < 4 || num_inputs > 6) return false;
    *slot = static_cast<std::size_t>(num_inputs - 4);
    return true;
}

std::shared_ptr<const WideStructure> ExactSynthesisCache::lookup_wide(
    int num_inputs, std::uint64_t canonical) {
    std::size_t slot;
    if (!slot_of(num_inputs, &slot)) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_[slot].find(canonical);
    if (it != map_[slot].end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
}

std::shared_ptr<const WideStructure> ExactSynthesisCache::insert_wide(
    std::shared_ptr<const WideStructure> s) {
    std::size_t slot;
    if (s == nullptr || !slot_of(s->num_inputs, &slot)) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t canonical = s->canonical;
    const auto [it, inserted] = map_[slot].emplace(canonical, std::move(s));
    if (inserted) failures_[slot].erase(canonical);
    return it->second;
}

void ExactSynthesisCache::clear() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& per_n : map_) per_n.clear();
        for (auto& per_n : failures_) per_n.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
}

bool ExactSynthesisCache::wide_failure_covers(int num_inputs,
                                              std::uint64_t canonical, int max_steps) {
    std::size_t slot;
    if (!slot_of(num_inputs, &slot)) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = failures_[slot].find(canonical);
    return it != failures_[slot].end() && max_steps <= it->second;
}

void ExactSynthesisCache::record_wide_failure(int num_inputs, std::uint64_t canonical,
                                              int max_steps) {
    std::size_t slot;
    if (!slot_of(num_inputs, &slot)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    // Never shadow a success: a program may have been published between
    // this worker's failed attempt and the record call.
    if (map_[slot].contains(canonical)) return;
    int& proven = failures_[slot].try_emplace(canonical, max_steps).first->second;
    proven = std::max(proven, max_steps);
}

namespace {

// On-disk exact-cache layout (little-endian as stored; the file is a
// warm-start hint, not an interchange format):
//   "BMXC" magic, u32 version, u32 class count, then per class u8
//   num_inputs (4..6), u64 canonical, u16 gate count, gates as (op, a, b,
//   c) with each ref an (index, complemented) byte pair, and the output
//   ref. Versions 1 and 2 (a separate 16-bit section for <= 4 inputs)
//   are unknown versions now and load nothing.
constexpr char kExactCacheMagic[4] = {'B', 'M', 'X', 'C'};
constexpr std::uint32_t kExactCacheVersion = 3;

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
    put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
    put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
    put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_ref(std::string& out, const WideRef& r) {
    out.push_back(static_cast<char>(r.index));
    out.push_back(static_cast<char>(r.complemented ? 1 : 0));
}

struct ByteReader {
    const std::string& data;
    std::size_t at = 0;
    bool ok = true;

    std::uint8_t u8() {
        if (at >= data.size()) { ok = false; return 0; }
        return static_cast<std::uint8_t>(data[at++]);
    }
    std::uint16_t u16() {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8()) << 8));
    }
    std::uint32_t u32() {
        const std::uint32_t lo = u16();
        return lo | (static_cast<std::uint32_t>(u16()) << 16);
    }
    std::uint64_t u64() {
        const std::uint64_t lo = u32();
        return lo | (static_cast<std::uint64_t>(u32()) << 32);
    }
    WideRef ref() {
        WideRef r;
        r.index = u8();
        r.complemented = u8() != 0;
        return r;
    }
};

/// Structural validity of a loaded ref at gate position `gate_pos`
/// (references may only reach inputs, earlier gates, or a constant).
bool ref_valid(const WideRef& r, int num_inputs, std::size_t gate_pos) {
    if (r.is_const()) return true;
    if (r.is_input()) return r.index < num_inputs;
    return r.index < WideRef::kGateBase + gate_pos;
}

}  // namespace

int ExactSynthesisCache::save_to_file(const std::string& path) const {
    std::vector<std::shared_ptr<const WideStructure>> entries;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& per_n : map_) {
            for (const auto& [canonical, s] : per_n) entries.push_back(s);
        }
    }
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
        return std::make_pair(a->num_inputs, a->canonical) <
               std::make_pair(b->num_inputs, b->canonical);
    });

    std::string payload;
    payload.append(kExactCacheMagic, sizeof(kExactCacheMagic));
    put_u32(payload, kExactCacheVersion);
    put_u32(payload, static_cast<std::uint32_t>(entries.size()));
    for (const auto& s : entries) {
        payload.push_back(static_cast<char>(s->num_inputs));
        put_u64(payload, s->canonical);
        put_u16(payload, static_cast<std::uint16_t>(s->gates.size()));
        for (const WideGate& g : s->gates) {
            payload.push_back(static_cast<char>(g.op));
            put_ref(payload, g.a);
            put_ref(payload, g.b);
            put_ref(payload, g.c);
        }
        put_ref(payload, s->output);
    }

    // Write-then-rename: readers either see the complete old file or the
    // complete new one, never a torn save.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return -1;
        out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        if (!out) {
            std::remove(tmp.c_str());
            return -1;
        }
    }
    // Chaos site: a crash "between write and rename" — the throw leaves the
    // complete tmp file behind and the destination untouched, which is
    // exactly the torn-save window the loader must shrug off.
    runtime::fault_point(runtime::FaultSite::kExactCacheIo);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return -1;
    }
    return static_cast<int>(entries.size());
}

int ExactSynthesisCache::load_from_file(const std::string& path) {
    // Chaos site: an IO fault at load time must cost the warm start only.
    runtime::fault_point(runtime::FaultSite::kExactCacheIo);
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) return 0;
        data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    if (data.compare(0, sizeof(kExactCacheMagic), kExactCacheMagic,
                     sizeof(kExactCacheMagic)) != 0) {
        return 0;
    }
    ByteReader rd{data, sizeof(kExactCacheMagic)};
    if (rd.u32() != kExactCacheVersion) return 0;
    const std::uint32_t count = rd.u32();
    if (!rd.ok) return 0;

    int inserted = 0;
    for (std::uint32_t i = 0; i < count && rd.ok; ++i) {
        auto s = std::make_shared<WideStructure>();
        s->num_inputs = rd.u8();
        s->canonical = rd.u64();
        const std::uint16_t gate_count = rd.u16();
        std::size_t slot = 0;
        bool valid = rd.ok && slot_of(s->num_inputs, &slot) &&
                     (s->canonical & ~tt_mask(s->num_inputs)) == 0;
        s->gates.reserve(gate_count);
        for (std::uint16_t g = 0; g < gate_count; ++g) {
            WideGate gate;
            const std::uint8_t op = rd.u8();
            gate.op = static_cast<ExactOp>(op);
            gate.a = rd.ref();
            gate.b = rd.ref();
            gate.c = rd.ref();
            valid = valid && rd.ok && op <= static_cast<std::uint8_t>(ExactOp::kOr) &&
                    ref_valid(gate.a, s->num_inputs, g) &&
                    ref_valid(gate.b, s->num_inputs, g) &&
                    ref_valid(gate.c, s->num_inputs, g);
            s->gates.push_back(gate);
        }
        s->output = rd.ref();
        valid = valid && rd.ok && ref_valid(s->output, s->num_inputs, s->gates.size());
        // The semantic check: a structure is only trusted if it actually
        // computes the class it claims. This is what makes a corrupted
        // (but well-framed) file unable to poison synthesis results.
        if (!valid || s->eval_tt() != s->canonical) continue;

        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t canonical = s->canonical;
        if (map_[slot].emplace(canonical, std::move(s)).second) ++inserted;
    }
    return inserted;
}

ExactCacheStats ExactSynthesisCache::stats() const {
    ExactCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& per_n : map_) out.classes_cached += static_cast<int>(per_n.size());
    for (const auto& per_n : failures_) {
        out.failures_recorded += static_cast<int>(per_n.size());
    }
    return out;
}

}  // namespace bdsmaj::decomp
