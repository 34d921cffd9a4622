#include "gpu/sm.hpp"

namespace rtp {

Sm::Sm(const SimConfig &config, const Bvh &bvh,
       const std::vector<Triangle> &triangles, MemorySystem &mem,
       std::uint32_t sm_id)
    : id_(sm_id)
{
    if (config.predictor.enabled)
        predictor_ = std::make_unique<RayPredictor>(
            config.predictor, bvh, static_cast<std::uint16_t>(sm_id));
    rtUnit_ = std::make_unique<RtUnit>(config.rt, bvh, triangles, mem,
                                       sm_id, predictor_.get());
}

} // namespace rtp
