// Per-layer timings of the traced run (see layers.cpp).
#pragma once

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

/// Times each layer's public calls on the workload's frames through `tr` and
/// adds the netio / proto / cls / state / core per-layer metrics to `m`.
/// `fused` is the runtime's switch, warmed by the runtime phases and with no
/// workers registered.
void run_layers(const Workload& wl, core::Eswitch& fused, Tracer& tr, Metrics& m);

}  // namespace perfbench
