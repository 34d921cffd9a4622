/**
 * @file
 * Result-schema versioning.
 *
 * Every machine-readable JSON document the simulator emits (SimResult,
 * StatGroup, bench sinks, telemetry timelines, trace metadata) carries
 * a top-level "schema_version" so downstream consumers — bench_diff,
 * rtp_report — can evolve independently of the producer. Consumers
 * accept documents without the key (pre-versioning output), accept the
 * current version silently, and warn (but proceed) on unknown versions.
 * `rtp_report cycles` is the exception: it re-checks a conservation
 * law and so requires the current version exactly.
 *
 * Version history:
 *   1 — first versioned schema.
 *       Adds the key itself; all other fields as previously emitted.
 */

#pragma once

#include <cstdint>

namespace rtp {

/** The schema version stamped into every emitted JSON document. */
constexpr std::uint32_t kResultSchemaVersion = 1;

/**
 * @return true when a consumer understands @p version. Version 0 means
 * "key absent" (pre-versioning documents) and is always accepted.
 */
constexpr bool
schemaVersionKnown(std::uint64_t version)
{
    return version <= kResultSchemaVersion;
}

} // namespace rtp
