// The model cache lives in core (core/model_cache.hpp). These two names stay
// reachable under serve:: for code that still spells them that way.
#pragma once

#include "core/model_cache.hpp"

namespace repro::serve {

using core::load_cached_model;
using core::save_model_atomic;

}  // namespace repro::serve
