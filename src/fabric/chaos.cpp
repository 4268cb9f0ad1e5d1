#include "fabric/chaos.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace fmm::fabric {

void validate(const ChaosSpec& spec) {
  FMM_CHECK_MSG(
      spec.drop_response_rate >= 0.0 && spec.drop_response_rate < 1.0,
      "chaos drop_response_rate must be in [0, 1), got "
          << spec.drop_response_rate);
  for (const KillEvent& kill : spec.kills) {
    FMM_CHECK_MSG(kill.after_requests >= 0,
                  "chaos kill event for worker "
                      << kill.worker << " has negative after_requests "
                      << kill.after_requests);
  }
}

ChaosEngine::ChaosEngine(ChaosSpec spec) : spec_(std::move(spec)) {
  validate(spec_);
  fired_.assign(spec_.kills.size(), false);
}

bool ChaosEngine::should_kill(std::size_t worker, std::int64_t dispatched) {
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < spec_.kills.size(); ++i) {
    if (!fired_[i] && spec_.kills[i].worker == worker &&
        dispatched >= spec_.kills[i].after_requests) {
      fired_[i] = true;
      ++kills_fired_;
      return true;
    }
  }
  return false;
}

bool ChaosEngine::should_drop_response(std::uint64_t request_seq,
                                       int attempt) const {
  if (spec_.drop_response_rate <= 0.0) {
    return false;
  }
  return splitmix_unit(spec_.seed, request_seq,
                       static_cast<std::uint64_t>(attempt)) <
         spec_.drop_response_rate;
}

std::int64_t ChaosEngine::kills_fired() const {
  const std::scoped_lock lock(mutex_);
  return kills_fired_;
}

}  // namespace fmm::fabric
