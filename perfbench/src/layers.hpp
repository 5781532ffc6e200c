#pragma once

#include <cstdint>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Per-operation costs of each layer, measured by driving the layer through
/// its own public functions at the workload's scale: the vehicles of the
/// workload's prefilled road, its radio range, and as many frames and
/// receptions as one of its scenario runs makes.
struct LayerCosts {
  double phy_ns_per_reception{0.0};  ///< Medium::transmit + delivery events
  std::uint64_t sim_events_fired{0}; ///< events in that replay's EventQueue
  double sim_ns_per_event{0.0};
  double gn_ns_per_ingest{0.0};      ///< Router::ingest of beacon frames
  double gn_loct_update_cold_ns{0.0};  ///< receiver-major over every vehicle's table
  double gn_loct_update_warm_ns{0.0};  ///< the same updates into one table
  double gn_gf_select_ns{0.0};
  double security_verify_cold_ns{0.0};  ///< first check of a fresh message
  double security_verify_warm_ns{0.0};  ///< memo hit
  double traffic_tick_us{0.0};
  std::uint64_t traffic_ticks{0};       ///< ticks in one scenario run
};

/// Runs every layer replay once. `per_run` holds one scenario run's exact
/// frame and reception counts, which size the phy and gn replays.
[[nodiscard]] LayerCosts measure_layers(const Inputs& in, const Counts& per_run,
                                        Tracer* tracer, Tracer::SpanId parent);

}  // namespace perfbench
