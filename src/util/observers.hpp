/**
 * @file
 * The push-observer bundle every simulated component reports to.
 *
 * Three observers watch a run from inside the components: the trace
 * sink (util/trace.hpp), the cycle-attribution profiler
 * (util/profile.hpp), and the invariant checker (util/check.hpp). A
 * component takes all three through one attach(const Observers &) call;
 * a null member is off and costs one branch per probe site, and an
 * empty bundle detaches everything. The telemetry sampler is pull-based
 * (it reads components between events) and stays outside the bundle.
 *
 * Simulation::run attaches one bundle per SM at the start of every
 * run and an empty one at its end, so a component that outlives
 * a run (a PredictorSet's predictors) never keeps a previous run's
 * observers. All three are pure observers: attaching any of them never
 * changes simulated cycles or statistics.
 */

#pragma once

namespace rtp {

class TraceSink;
class CycleProfiler;
class InvariantChecker;

/** Non-owning observer pointers; nullptr = that observer is off. */
struct Observers
{
    TraceSink *trace = nullptr;
    CycleProfiler *profile = nullptr;
    InvariantChecker *check = nullptr;
};

} // namespace rtp
