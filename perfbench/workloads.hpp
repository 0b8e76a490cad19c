#pragma once

// The three workloads and the stand-alone kernel probes of the traced
// mode.  Every input — covariance targets, Doppler and scenario
// parameters, tenant seeds, the arrival sequence — is generated here from
// the workload seed; rfade only sees the resulting specs and seeds.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "rfade/service/channel_spec.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// --- stream -------------------------------------------------------------------

constexpr std::size_t kStreamBranches = 16;
constexpr std::size_t kStreamIdft = 4096;

struct StreamInputs {
  CMatrix covariance;  ///< PD, so the compiled K_bar equals it
  double fm = 0.05;
  // optional: ChannelSpec has no default state, only Builder::build().
  std::optional<rfade::service::ChannelSpec> spec_f64;
  std::optional<rfade::service::ChannelSpec> spec_f32;
  std::uint64_t seed_f64 = 0;
  std::uint64_t seed_f32 = 0;
};
StreamInputs make_stream_inputs(std::uint64_t seed);

// --- serve --------------------------------------------------------------------

constexpr std::size_t kServeBranches = 4;
constexpr std::size_t kServeIdft = 1024;
constexpr std::size_t kServeSpecs = 6;
constexpr std::size_t kTenantsPerSpec = 8;
/// Tenants per tapped spec served through Session::next_block.
constexpr std::size_t kTappedPerSpec = 4;

/// One serve spec with the parameters the benchmark derives its expected
/// branch powers from.
struct ServeSpec {
  std::string name;  ///< metric suffix: rayleigh, rician, ...
  std::optional<rfade::service::ChannelSpec> spec;
  CMatrix covariance;         ///< diffuse / stage-1 covariance
  CMatrix second_covariance;  ///< cascaded stage 2
  double fm = 0.05;
  double second_fm = 0.05;
  double k_factor = 0.0;  ///< Rician K or TWDP K
  double sigma_db = 0.0;  ///< Suzuki shadowing
  double decorrelation = 0.0;
  std::size_t spacing = 1;
  bool tapped = false;  ///< kTappedPerSpec of its tenants carry a MetricsTap
};
struct ServeInputs {
  std::vector<ServeSpec> specs;
  /// seeds[s * kTenantsPerSpec + t]: tenant t of spec s.
  std::vector<std::uint64_t> tenant_seeds;
};
ServeInputs make_serve_inputs(std::uint64_t seed);

/// Expected mean branch power of \p spec's branch \p j, and the standard
/// error of a sample mean over \p samples samples of one tenant timeline.
struct PowerReference {
  double power = 0.0;
  double standard_error = 0.0;
};
PowerReference expected_power(const ServeSpec& spec, std::size_t j,
                              double samples);

// --- churn --------------------------------------------------------------------

constexpr std::size_t kChurnBranches = 32;
constexpr std::size_t kChurnIdft = 2048;
constexpr std::size_t kChurnSpecs = 24;
constexpr std::size_t kChurnCacheCapacity = 10;

struct ChurnInputs {
  std::vector<CMatrix> targets;
  std::vector<bool> indefinite;
  std::vector<rfade::service::ChannelSpec> specs;
  /// Spec index of each arrival, and the arrival's session seed.
  std::vector<std::size_t> arrivals;
  std::vector<std::uint64_t> arrival_seeds;
};
ChurnInputs make_churn_inputs(std::uint64_t seed, std::size_t arrivals);

// --- runs ---------------------------------------------------------------------

void run_stream(const RunConfig& config, Report& report);
void run_serve(const RunConfig& config, Report& report);
void run_churn(const RunConfig& config, Report& report);

/// Stand-alone timings of the kernels at the workloads' sizes (traced
/// mode).  Writes the per-layer metrics the spans of \p config's
/// workload cannot give.
void run_probes(const RunConfig& config, Report& report);

}  // namespace perfbench
