#include "util/trace.hpp"

#include "util/schema.hpp"

#include <cstdio>
#include <fstream>

namespace rtp {

TraceSink::TraceSink(std::size_t capacity)
{
    ring_.resize(capacity == 0 ? 1 : capacity);
}

std::vector<TraceEvent>
TraceSink::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
TraceSink::clear()
{
    head_ = 0;
    size_ = 0;
}

void
TraceSink::mergeTaggedShards(const std::vector<const TraceSink *> &shards,
                             TraceSink &out)
{
    // K-way merge over per-shard cursors. Every shard's key sequence is
    // non-decreasing, so repeatedly emitting the globally smallest
    // (orderCycle, orderSm) head reproduces the sequential emission
    // order; keys never tie across shards that matter (a key's orderSm
    // belongs to exactly one shard sink), and equal keys within one
    // shard keep their FIFO order because the cursor only moves forward.
    std::vector<std::size_t> cursor(shards.size(), 0);
    while (true) {
        std::size_t best = shards.size();
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const auto &ev = shards[i]->tagged_;
            if (cursor[i] >= ev.size())
                continue;
            if (best == shards.size())
                best = i;
            else {
                const TaggedEvent &a = ev[cursor[i]];
                const TaggedEvent &b =
                    shards[best]->tagged_[cursor[best]];
                if (a.orderCycle < b.orderCycle ||
                    (a.orderCycle == b.orderCycle &&
                     a.orderSm < b.orderSm))
                    best = i;
            }
        }
        if (best == shards.size())
            break;
        out.emit(shards[best]->tagged_[cursor[best]].event);
        cursor[best]++;
    }
}

const char *
TraceSink::kindName(TraceEventKind kind)
{
    switch (kind) {
    case TraceEventKind::WarpDispatch: return "warp_dispatch";
    case TraceEventKind::WarpComplete: return "warp";
    case TraceEventKind::NodeFetchIssue: return "node_fetch_issue";
    case TraceEventKind::NodeFetchReady: return "node_fetch";
    case TraceEventKind::CacheHit: return "cache_hit";
    case TraceEventKind::CacheMiss: return "cache_miss";
    case TraceEventKind::CacheMshrMerge: return "cache_mshr_merge";
    case TraceEventKind::CacheInflightBypass:
        return "cache_inflight_bypass";
    case TraceEventKind::DramAccess: return "dram_access";
    case TraceEventKind::PredictorLookup: return "pred_lookup";
    case TraceEventKind::PredictorTrain: return "pred_train";
    case TraceEventKind::PredictorVerify: return "pred_verify";
    case TraceEventKind::PredictorMispredict: return "mispredict";
    case TraceEventKind::RepackCollect: return "repack_collect";
    case TraceEventKind::RepackFlush: return "repack_flush";
    }
    return "unknown";
}

namespace {

/** Chrome-trace process ids, one per component category. */
enum : std::uint32_t
{
    kPidRtUnit = 1,
    kPidCache = 2,
    kPidDram = 3,
    kPidPredictor = 4,
    kPidRepacker = 5,
};

std::uint32_t
pidOf(TraceEventKind kind)
{
    switch (kind) {
    case TraceEventKind::WarpDispatch:
    case TraceEventKind::WarpComplete:
    case TraceEventKind::NodeFetchIssue:
    case TraceEventKind::NodeFetchReady:
        return kPidRtUnit;
    case TraceEventKind::CacheHit:
    case TraceEventKind::CacheMiss:
    case TraceEventKind::CacheMshrMerge:
    case TraceEventKind::CacheInflightBypass:
        return kPidCache;
    case TraceEventKind::DramAccess:
        return kPidDram;
    case TraceEventKind::PredictorLookup:
    case TraceEventKind::PredictorTrain:
    case TraceEventKind::PredictorVerify:
    case TraceEventKind::PredictorMispredict:
        return kPidPredictor;
    case TraceEventKind::RepackCollect:
    case TraceEventKind::RepackFlush:
        return kPidRepacker;
    }
    return 0;
}

const char *
catOf(std::uint32_t pid)
{
    switch (pid) {
    case kPidRtUnit: return "rtunit";
    case kPidCache: return "cache";
    case kPidDram: return "dram";
    case kPidPredictor: return "predictor";
    case kPidRepacker: return "repacker";
    }
    return "sim";
}

/**
 * Event display name. Cache events fold the level (aux) into the name
 * ("l1_miss", "l2_hit") so Perfetto tracks and `rtp_report trace`
 * summaries distinguish levels without inspecting args.
 */
void
writeName(std::ostream &os, const TraceEvent &ev)
{
    switch (ev.kind) {
    case TraceEventKind::CacheHit:
    case TraceEventKind::CacheMiss:
    case TraceEventKind::CacheMshrMerge:
    case TraceEventKind::CacheInflightBypass: {
        const char *base = TraceSink::kindName(ev.kind) + 6; // "cache_"
        if (ev.aux == 1 || ev.aux == 2)
            os << 'l' << ev.aux << '_' << base;
        else
            os << TraceSink::kindName(ev.kind);
        return;
    }
    default:
        os << TraceSink::kindName(ev.kind);
    }
}

/** Kind-specific args object (small, deterministic key order). */
void
writeArgs(std::ostream &os, const TraceEvent &ev)
{
    switch (ev.kind) {
    case TraceEventKind::WarpDispatch:
        os << "{\"warp\":" << ev.id << ",\"repacked\":" << ev.aux
           << "}";
        break;
    case TraceEventKind::WarpComplete:
        os << "{\"warp\":" << ev.id << ",\"rays\":" << ev.arg << "}";
        break;
    case TraceEventKind::NodeFetchIssue:
    case TraceEventKind::NodeFetchReady:
        os << "{\"node\":" << ev.id << ",\"leaf\":" << ev.aux
           << ",\"lat\":" << ev.arg << "}";
        break;
    case TraceEventKind::CacheHit:
    case TraceEventKind::CacheMiss:
    case TraceEventKind::CacheMshrMerge:
    case TraceEventKind::CacheInflightBypass:
        os << "{\"addr\":" << ev.id << ",\"lat\":" << ev.arg << "}";
        break;
    case TraceEventKind::DramAccess:
        os << "{\"addr\":" << ev.id << ",\"row_hit\":" << ev.aux
           << ",\"busy_banks\":" << ev.arg << "}";
        break;
    case TraceEventKind::PredictorLookup:
        os << "{\"ray\":" << ev.id << ",\"hit\":" << ev.aux << "}";
        break;
    case TraceEventKind::PredictorTrain:
        os << "{\"ray\":" << ev.id << ",\"node\":" << ev.arg << "}";
        break;
    case TraceEventKind::PredictorVerify:
        os << "{\"ray\":" << ev.id << "}";
        break;
    case TraceEventKind::PredictorMispredict:
        os << "{\"ray\":" << ev.id << ",\"wasted_fetches\":" << ev.arg
           << "}";
        break;
    case TraceEventKind::RepackCollect:
    case TraceEventKind::RepackFlush:
        os << "{\"count\":" << ev.arg << ",\"timeout\":" << ev.aux
           << "}";
        break;
    }
}

} // namespace

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;

    // Name the per-category "processes" so Perfetto's track labels read
    // as components rather than bare pids.
    bool present[6] = {};
    for (std::size_t i = 0; i < size_; ++i)
        present[pidOf(ring_[(head_ + i) % ring_.size()].kind)] = true;
    for (std::uint32_t pid = 1; pid <= 5; ++pid) {
        if (!present[pid])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"args\":{\"name\":\"" << catOf(pid) << "\"}}";
    }

    for (std::size_t i = 0; i < size_; ++i) {
        const TraceEvent &ev = ring_[(head_ + i) % ring_.size()];
        std::uint32_t pid = pidOf(ev.kind);
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"";
        writeName(os, ev);
        os << "\",\"cat\":\"" << catOf(pid) << "\"";
        if (ev.duration > 0)
            os << ",\"ph\":\"X\",\"ts\":" << ev.cycle
               << ",\"dur\":" << ev.duration;
        else
            os << ",\"ph\":\"i\",\"ts\":" << ev.cycle
               << ",\"s\":\"t\"";
        os << ",\"pid\":" << pid << ",\"tid\":" << ev.unit
           << ",\"args\":";
        writeArgs(os, ev);
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
       << "\"schema_version\":" << kResultSchemaVersion << ","
       << "\"clock\":\"1 ts = 1 simulated cycle\","
       << "\"buffered_events\":" << size_
       << ",\"dropped_events\":" << dropped_
       << ",\"emitted_events\":" << size_ + dropped_ << "}}\n";
}

bool
TraceSink::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    writeChromeTrace(f);
    f.flush();
    return static_cast<bool>(f);
}

} // namespace rtp
