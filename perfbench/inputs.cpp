// Seeded workload inputs and the analytic branch powers of the serve specs.

#include <cmath>

#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

using rfade::core::Precision;
using rfade::doppler::StreamBackend;
using rfade::service::ChannelSpec;

namespace {

/// dB-to-natural-log factor of an amplitude gain 10^(x / 20).
constexpr double kLn10Over20 = 0.11512925464970229;

}  // namespace

StreamInputs make_stream_inputs(std::uint64_t seed) {
  SeedRng rng(derive_seed(seed, 1));
  StreamInputs in;
  in.covariance = random_pd_covariance(kStreamBranches, rng);
  in.fm = rng.uniform(0.02, 0.08);
  auto builder = [&](Precision precision) {
    return ChannelSpec::Builder()
        .rayleigh(in.covariance)
        .backend(StreamBackend::OverlapSaveFir)
        .idft_size(kStreamIdft)
        .doppler(in.fm)
        .precision(precision)
        .build();
  };
  in.spec_f64 = builder(Precision::Float64);
  in.spec_f32 = builder(Precision::Float32);
  in.seed_f64 = rng.next();
  in.seed_f32 = rng.next();
  return in;
}

ServeInputs make_serve_inputs(std::uint64_t seed) {
  SeedRng rng(derive_seed(seed, 2));
  ServeInputs in;
  auto base = [&](const char* name) {
    ServeSpec s;
    s.name = name;
    s.covariance = random_pd_covariance(kServeBranches, rng);
    s.fm = rng.uniform(0.03, 0.08);
    return s;
  };

  ServeSpec rayleigh = base("rayleigh");
  rayleigh.tapped = true;
  rayleigh.spec = ChannelSpec::Builder()
                      .rayleigh(rayleigh.covariance)
                      .backend(StreamBackend::IndependentBlock)
                      .idft_size(kServeIdft)
                      .doppler(rayleigh.fm)
                      .build();
  in.specs.push_back(rayleigh);

  ServeSpec rician = base("rician");
  rician.k_factor = rng.uniform(1.0, 6.0);
  rician.spec = ChannelSpec::Builder()
                    .rician(rician.covariance, rician.k_factor,
                            rng.uniform(0.0, 2.0 * M_PI))
                    .backend(StreamBackend::WindowedOverlapAdd)
                    .idft_size(kServeIdft)
                    .doppler(rician.fm)
                    .los_doppler(rng.uniform(0.005, 0.02))
                    .build();
  in.specs.push_back(rician);

  ServeSpec twdp = base("twdp");
  twdp.k_factor = rng.uniform(1.0, 6.0);
  const double wave1 = rng.uniform(0.005, 0.015);
  const double wave2 = -wave1 * rng.uniform(1.2, 2.0);
  twdp.spec = ChannelSpec::Builder()
                  .twdp(twdp.covariance, twdp.k_factor, rng.uniform(0.3, 0.9))
                  .backend(StreamBackend::OverlapSaveFir)
                  .idft_size(kServeIdft)
                  .doppler(twdp.fm)
                  .wave_dopplers(wave1, wave2)
                  .build();
  // Stored for the power tolerance: the wave cross term averages out at
  // the beat frequency |wave1 - wave2|.
  twdp.second_fm = wave1 - wave2;
  in.specs.push_back(twdp);

  ServeSpec suzuki = base("suzuki");
  suzuki.sigma_db = rng.uniform(3.0, 5.0);
  suzuki.decorrelation = rng.uniform(128.0, 512.0);
  suzuki.spacing = 16;
  rfade::scenario::composite::ShadowingSpec shadowing;
  shadowing.sigma_db = suzuki.sigma_db;
  shadowing.decorrelation_samples = suzuki.decorrelation;
  shadowing.spacing = suzuki.spacing;
  suzuki.spec = ChannelSpec::Builder()
                    .suzuki(suzuki.covariance, shadowing)
                    .backend(StreamBackend::OverlapSaveFir)
                    .idft_size(kServeIdft)
                    .doppler(suzuki.fm)
                    .build();
  in.specs.push_back(suzuki);

  ServeSpec cascaded = base("cascaded");
  cascaded.second_covariance = random_pd_covariance(kServeBranches, rng);
  cascaded.second_fm = rng.uniform(0.03, 0.08);
  cascaded.spec = ChannelSpec::Builder()
                      .cascaded(cascaded.covariance, cascaded.second_covariance)
                      .idft_size(kServeIdft)
                      .doppler(cascaded.fm)
                      .second_doppler(cascaded.second_fm)
                      .build();
  in.specs.push_back(cascaded);

  ServeSpec f32 = base("rayleigh_f32");
  f32.tapped = true;
  f32.spec = ChannelSpec::Builder()
                 .rayleigh(f32.covariance)
                 .backend(StreamBackend::OverlapSaveFir)
                 .idft_size(kServeIdft)
                 .doppler(f32.fm)
                 .precision(Precision::Float32)
                 .build();
  in.specs.push_back(f32);

  in.tenant_seeds.resize(kServeSpecs * kTenantsPerSpec);
  for (std::uint64_t& s : in.tenant_seeds) s = rng.next();
  return in;
}

PowerReference expected_power(const ServeSpec& spec, std::size_t j,
                              double samples) {
  const double p = spec.covariance(j, j).real();
  const double tau2 = j0_correlation_time(spec.fm, kServeIdft, 2);
  const double tau1 = j0_correlation_time(spec.fm, kServeIdft, 1);
  PowerReference ref;
  double variance_time = 0.0;  // per-sample variance x correlation time
  switch (spec.spec->family()) {
    case rfade::service::FadingFamily::Rayleigh:
      ref.power = p;
      variance_time = p * p * tau2;
      break;
    case rfade::service::FadingFamily::Rician:
      // |A + d|^2 with |A|^2 = K p: diffuse part plus the A-d cross term.
      ref.power = p * (1.0 + spec.k_factor);
      variance_time = p * p * tau2 + 2.0 * spec.k_factor * p * p * tau1;
      break;
    case rfade::service::FadingFamily::Twdp:
      // Two specular waves of total power K p; their cross term beats at
      // |f1 - f2| and averages out (its residual is added below).
      ref.power = p * (1.0 + spec.k_factor);
      variance_time = p * p * tau2 + 4.0 * spec.k_factor * p * p * tau1;
      break;
    case rfade::service::FadingFamily::Suzuki: {
      // g = 10^(X / 20), X ~ N(0, sigma_dB^2) at nodes `spacing` apart,
      // amplitude-interpolated in between: E[g^2] at a node, E[g_a g_b]
      // across one node gap, weighted by the interpolation fraction.
      const double s2 = std::pow(kLn10Over20 * spec.sigma_db, 2);
      const double node_rho = std::exp(-static_cast<double>(spec.spacing) /
                                       spec.decorrelation);
      const double g2 = std::exp(2.0 * s2);
      const double gab = std::exp(s2 * (1.0 + node_rho));
      double same = 0.0;
      double cross = 0.0;
      for (std::size_t k = 0; k < spec.spacing; ++k) {
        const double f =
            static_cast<double>(k) / static_cast<double>(spec.spacing);
        same += (1.0 - f) * (1.0 - f) + f * f;
        cross += 2.0 * f * (1.0 - f);
      }
      const double eg2 =
          (same * g2 + cross * gab) / static_cast<double>(spec.spacing);
      ref.power = p * eg2;
      const double g4 = std::exp(8.0 * s2);
      const double shadow_time =
          (1.0 + std::exp(-1.0 / spec.decorrelation)) /
          (1.0 - std::exp(-1.0 / spec.decorrelation));
      variance_time = p * p * (g4 - g2 * g2) * shadow_time + g4 * p * p * tau2;
      break;
    }
    case rfade::service::FadingFamily::CascadedRayleigh: {
      const double p2 = spec.second_covariance(j, j).real();
      const double tau2b = j0_correlation_time(spec.second_fm, kServeIdft, 2);
      ref.power = p * p2;
      variance_time =
          p * p * p2 * p2 * (tau2 + tau2b + std::min(tau2, tau2b));
      break;
    }
    case rfade::service::FadingFamily::CopulaMarginals:
      break;
  }
  ref.standard_error = std::sqrt(variance_time / samples);
  return ref;
}

ChurnInputs make_churn_inputs(std::uint64_t seed, std::size_t arrivals) {
  SeedRng rng(derive_seed(seed, 3));
  ChurnInputs in;
  for (std::size_t i = 0; i < kChurnSpecs; ++i) {
    // The class of spec i is fixed by i (so every seed runs the same mix
    // of work): even specs overlap-save, odd independent-block; every
    // third one indefinite.  The seed sets the numbers.
    const bool indefinite = i % 3 == 0;
    CMatrix target = indefinite
                         ? random_indefinite_covariance(kChurnBranches, rng)
                         : random_pd_covariance(kChurnBranches, rng);
    in.specs.push_back(ChannelSpec::Builder()
                           .rayleigh(target)
                           .backend(i % 2 == 0 ? StreamBackend::OverlapSaveFir
                                               : StreamBackend::IndependentBlock)
                           .idft_size(kChurnIdft)
                           .doppler(rng.uniform(0.02, 0.1))
                           .build());
    in.targets.push_back(std::move(target));
    in.indefinite.push_back(indefinite);
  }
  // Zipf(1) popularity over the spec index.  The sequence of indices is
  // the same for every seed, so hits, misses and evictions repeat
  // exactly; the seed reaches the arrivals through the specs and seeds.
  std::vector<double> cdf(kChurnSpecs);
  double total = 0.0;
  for (std::size_t i = 0; i < kChurnSpecs; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  SeedRng shape(0x5EED0C4A2ULL);
  for (std::size_t a = 0; a < arrivals; ++a) {
    const double u = shape.uniform() * total;
    std::size_t i = 0;
    while (i + 1 < kChurnSpecs && cdf[i] <= u) ++i;
    in.arrivals.push_back(i);
    in.arrival_seeds.push_back(rng.next());
  }
  return in;
}

}  // namespace perfbench
