/**
 * @file
 * Perf-baseline regression gate: compare fresh bench JSON output
 * against committed baselines (bench/baselines/ in the repo).
 *
 * Usage:
 *   bench_diff [options] <baseline.json> <current.json>
 *   bench_diff [options] <baseline_dir>  <current_dir>
 *
 * In directory mode every *.json under <baseline_dir> is compared
 * against the identically named file under <current_dir>; a baseline
 * file with no current counterpart is a failure (the bench silently
 * disappeared). Files only present in <current_dir> are ignored, so
 * adding a bench does not require touching baselines in the same PR.
 *
 * Options (see util/bench_compare.hpp for the comparison rules):
 *   --rel-tol <x>         symmetric tolerance for deterministic
 *                         metrics (default 0.02 = 2%)
 *   --include-histograms  also compare "histograms" subtrees
 *
 * Host speed is not gated here; perfbench/ measures it.
 *
 * Exits 0 when everything is within tolerance, 1 on regressions, 2 on
 * usage errors, 3 on unreadable or unparseable input. CI runs this
 * after the bench step and fails the job on exit 1.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "util/bench_compare.hpp"
#include "util/json.hpp"
#include "util/schema.hpp"

namespace {

namespace fs = std::filesystem;
using rtp::BenchDiffOptions;
using rtp::BenchViolation;
using rtp::JsonValue;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--rel-tol <x>] [--include-histograms] "
                 "<baseline.json|dir> <current.json|dir>\n",
                 argv0);
    return 2;
}

/** Parse @p path; on failure print a message and return nullopt. */
std::optional<JsonValue>
loadJson(const std::string &path)
{
    std::string error;
    auto v = rtp::loadJsonFile(path, &error);
    if (!v)
        std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return v;
}

/** Compare one baseline/current file pair; print its violations.
 *  @return 0 pass, 1 violations, 3 bad input. */
int
compareFiles(const std::string &base_path,
             const std::string &cur_path, const BenchDiffOptions &opts)
{
    auto base = loadJson(base_path);
    auto cur = loadJson(cur_path);
    if (!base || !cur)
        return 3;
    // Versioned schema: documents without the key are pre-versioning
    // output and accepted; an unknown (newer) version warns but still
    // compares — the producer may have added fields this build does
    // not know, which the comparison rules already tolerate.
    if (const JsonValue *ver = cur->find("schema_version")) {
        if (ver->isNumber() &&
            !rtp::schemaVersionKnown(
                static_cast<std::uint64_t>(ver->number)))
            std::fprintf(stderr,
                         "bench_diff: warning: %s has schema_version "
                         "%.0f, newer than supported %u; comparing "
                         "anyway\n",
                         cur_path.c_str(), ver->number,
                         rtp::kResultSchemaVersion);
    }
    std::vector<BenchViolation> violations =
        rtp::compareBench(*base, *cur, opts);
    if (violations.empty()) {
        std::printf("bench_diff: OK  %s vs %s\n", base_path.c_str(),
                    cur_path.c_str());
        return 0;
    }
    std::printf("bench_diff: FAIL  %s vs %s — %zu violation(s):\n",
                base_path.c_str(), cur_path.c_str(),
                violations.size());
    for (const BenchViolation &v : violations)
        std::printf("%s\n", rtp::formatViolation(v).c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchDiffOptions opts;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--rel-tol") {
            if (i + 1 >= argc)
                return usage(argv[0]);
            char *end = nullptr;
            double v = std::strtod(argv[++i], &end);
            if (!end || *end != '\0' || v < 0.0) {
                std::fprintf(stderr,
                             "bench_diff: --rel-tol needs a non-negative "
                             "number, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            opts.relTol = v;
        } else if (arg == "--include-histograms") {
            opts.includeHistograms = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bench_diff: unknown option %s\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return usage(argv[0]);

    std::error_code ec;
    bool base_is_dir = fs::is_directory(paths[0], ec);
    bool cur_is_dir = fs::is_directory(paths[1], ec);
    if (base_is_dir != cur_is_dir) {
        std::fprintf(stderr,
                     "bench_diff: %s and %s must both be files or "
                     "both be directories\n",
                     paths[0].c_str(), paths[1].c_str());
        return 2;
    }

    if (!base_is_dir)
        return compareFiles(paths[0], paths[1], opts);

    // Directory mode: every baseline *.json needs a current match.
    // std::map keys give a deterministic comparison order.
    std::map<std::string, fs::path> baselines;
    for (const auto &entry : fs::directory_iterator(paths[0], ec)) {
        if (entry.path().extension() == ".json")
            baselines[entry.path().filename().string()] =
                entry.path();
    }
    if (ec) {
        std::fprintf(stderr, "bench_diff: cannot read %s: %s\n",
                     paths[0].c_str(), ec.message().c_str());
        return 3;
    }
    if (baselines.empty()) {
        std::fprintf(stderr,
                     "bench_diff: no *.json baselines in %s\n",
                     paths[0].c_str());
        return 3;
    }

    int worst = 0;
    for (const auto &kv : baselines) {
        fs::path cur = fs::path(paths[1]) / kv.first;
        if (!fs::exists(cur, ec)) {
            std::printf("bench_diff: FAIL  %s has no counterpart "
                        "under %s\n",
                        kv.second.string().c_str(), paths[1].c_str());
            worst = std::max(worst, 1);
            continue;
        }
        worst = std::max(
            worst,
            compareFiles(kv.second.string(), cur.string(), opts));
    }
    return worst;
}
