// The stream, serve and churn workloads: fixed, seeded sequences of
// operations timed from outside the library, with their output checks.

#include "workloads.hpp"

#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "checks.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/service/channel_service.hpp"

namespace perfbench {

using rfade::core::FadingStream;
using rfade::numeric::CMatrixF;
using rfade::service::ChannelService;
using rfade::service::Session;

namespace {

// Work per second of run length, sized so one run's timed phase lasts
// about --seconds on the 4-core reference machine (see README).  Fixed
// work makes every count repeat exactly from run to run.
constexpr std::size_t kStreamRoundsPerSecond = 70;
constexpr std::size_t kServeRoundsPerSecond = 30;
constexpr std::size_t kChurnArrivalsPerSecond = 75;

/// Stream blocks folded into the statistical checks: one round in this
/// many, so the estimators stay a small share of the run.
constexpr std::size_t kStreamCheckEvery = 4;

/// Fresh cursors per precision the stream workload stands up during its
/// run to time tenant readiness.
constexpr std::size_t kStreamStandUps = 16;

/// Standard errors allowed by the statistical checks.
constexpr double kSigmas = 6.0;

std::size_t stream_rounds(const RunConfig& c) {
  return kStreamRoundsPerSecond * static_cast<std::size_t>(c.seconds);
}
std::size_t serve_rounds(const RunConfig& c) {
  return kServeRoundsPerSecond * static_cast<std::size_t>(c.seconds);
}
std::size_t churn_arrivals(const RunConfig& c) {
  return kChurnArrivalsPerSecond * static_cast<std::size_t>(c.seconds);
}

double ms(double seconds) { return seconds * 1e3; }

/// Timing summary shared by the three workloads: throughput over the
/// timed phase and the median round time, scaled to the reference host
/// speed (common.hpp, HostSpeed).  The raw figures and the p99 go to the
/// result file.
void report_rounds(Report& report, const std::vector<double>& round_s,
                   double samples_per_round, const HostSpeed& host) {
  double total = 0.0;
  for (const double t : round_s) total += t;
  const double samples = samples_per_round * static_cast<double>(round_s.size());
  const double h = host.factor();
  report.metrics["samples_per_s"] = {samples / total * h, "samples/s"};
  report.metrics["sweep_ms"] = {ms(median(round_s)) / h, "ms"};
  report.info["samples_per_s.raw"] = samples / total;
  report.info["sweep_ms.raw"] = ms(median(round_s));
  report.info["sweep_ms.raw_p99"] = ms(quantile(round_s, 0.99));
  report.info["sweep_ms.count"] = static_cast<double>(round_s.size());
  report.info["timed_phase_s"] = total;
  report.info["host.speed_factor"] = h;
  report.info["host.proxy_us"] = host.proxy_seconds() * 1e6;
}

void report_ready(Report& report, const std::vector<double>& ready_s,
                  const HostSpeed& host) {
  report.metrics["tenant_ready_ms"] = {ms(median(ready_s)) / host.factor(),
                                       "ms"};
  report.info["tenant_ready_ms.raw"] = ms(median(ready_s));
  report.info["tenant_ready_ms.raw_p99"] = ms(quantile(ready_s, 0.99));
  report.info["tenant_ready_ms.count"] = static_cast<double>(ready_s.size());
}

void report_cache(Report& report, const rfade::service::PlanCacheStats& s) {
  report.info["service.cache_hits"] = static_cast<double>(s.hits);
  report.info["service.cache_misses"] = static_cast<double>(s.misses);
  report.info["service.cache_evictions"] = static_cast<double>(s.evictions);
}

/// \p count distinct round indices in [0, rounds), drawn from the seed.
std::set<std::size_t> sampled_rounds(std::uint64_t seed, std::size_t salt,
                                     std::size_t rounds, std::size_t count) {
  SeedRng rng(derive_seed(seed, salt));
  std::set<std::size_t> out;
  while (out.size() < std::min(count, rounds)) {
    out.insert(static_cast<std::size_t>(rng.next() % rounds));
  }
  return out;
}

}  // namespace

// --- stream -------------------------------------------------------------------

void run_stream(const RunConfig& config, Report& report) {
  const StreamInputs in = make_stream_inputs(config.seed);
  const std::size_t rounds = stream_rounds(config);
  ChannelService service;

  // Set-up: both cursors open and holding their first block.
  std::vector<double> ready_s;
  auto open = [&](const rfade::service::ChannelSpec& spec,
                  std::uint64_t seed) {
    const Clock::time_point start = Clock::now();
    std::shared_ptr<const rfade::service::CompiledChannel> channel;
    {
      ScopedSpan span("service.compile.miss");
      channel = service.compile(spec);
    }
    FadingStream stream = [&] {
      ScopedSpan span("core.make_stream");
      return channel->make_stream(seed);
    }();
    return std::make_tuple(std::move(stream), start, channel);
  };
  CovarianceEstimator cov64(kStreamBranches), cov32(kStreamBranches);
  const std::vector<std::size_t> lags = {1, 2, 4, 8, 16, 32};
  AcfEstimator acf64(lags), acf32(lags);

  auto [s64, start64, channel64] = open(*in.spec_f64, in.seed_f64);
  {
    ScopedSpan span("core.cursor_block.f64");
    const CMatrix first = s64.next_block();
    ready_s.push_back(seconds_between(start64, Clock::now()));
    cov64.add(first);
  }
  auto [s32, start32, channel32] = open(*in.spec_f32, in.seed_f32);
  {
    ScopedSpan span("core.cursor_block.f32");
    const CMatrixF first = s32.next_block_f32();
    ready_s.push_back(seconds_between(start32, Clock::now()));
    cov32.add(first);
  }
  report.metrics["setup_s"] = {
      seconds_between(process_start(), Clock::now()), "s"};

  // Stand-ups: fresh cursors on the compiled specs, each to its first
  // block, spread evenly over the run -- the time a new stream tenant
  // waits, sampled under the same conditions as the rounds.
  SeedRng stand_up_seeds(derive_seed(config.seed, 14));
  ready_s.clear();
  auto stand_up = [&] {
    const Clock::time_point start = Clock::now();
    ScopedSpan span("stream.stand_up");
    const std::uint64_t seed = stand_up_seeds.next();
    if (ready_s.size() % 2 == 0) {
      FadingStream stream = channel64->make_stream(seed);
      const CMatrix first = stream.next_block();
    } else {
      FadingStream stream = channel32->make_stream(seed);
      const CMatrixF first = stream.next_block_f32();
    }
    ready_s.push_back(seconds_between(start, Clock::now()));
  };
  const std::size_t stand_up_every =
      std::max<std::size_t>(1, rounds / (2 * kStreamStandUps));

  HostSpeed host;
  const std::set<std::size_t> sampled =
      sampled_rounds(config.seed, 11, rounds, 3);
  std::vector<std::pair<std::uint64_t, CMatrix>> kept64;
  std::vector<std::pair<std::uint64_t, CMatrixF>> kept32;
  std::vector<double> round_s;
  round_s.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t index = s64.next_block_index();
    const Clock::time_point t0 = Clock::now();
    CMatrix z64;
    CMatrixF z32;
    {
      ScopedSpan round("stream.round");
      {
        ScopedSpan span("core.cursor_block.f64");
        z64 = s64.next_block();
      }
      {
        ScopedSpan span("core.cursor_block.f32");
        z32 = s32.next_block_f32();
      }
    }
    round_s.push_back(seconds_between(t0, Clock::now()));
    host.sample();
    if (r % kStreamCheckEvery == 0) {
      cov64.add(z64);
      cov32.add(z32);
      acf64.add(z64);
      acf32.add(z32);
    }
    if (sampled.count(r) != 0) {
      kept64.emplace_back(index, std::move(z64));
      kept32.emplace_back(index, std::move(z32));
    }
    if (r % stand_up_every == stand_up_every / 2 &&
        ready_s.size() < 2 * kStreamStandUps) {
      stand_up();
    }
  }
  while (ready_s.size() < 2 * kStreamStandUps) stand_up();

  const double samples_per_block =
      static_cast<double>(kStreamIdft * kStreamBranches);
  report_rounds(report, round_s, 2.0 * samples_per_block, host);
  report_ready(report, ready_s, host);
  report_cache(report, service.cache_stats());
  report.attempted = 2 + 2 * kStreamStandUps + 2 * rounds;
  report.info["count.blocks"] = static_cast<double>(report.attempted);
  report.info["count.samples"] =
      static_cast<double>(report.attempted) * samples_per_block;
  report.info["count.sessions_opened"] = 2.0 + 2.0 * kStreamStandUps;

  // Check 1: sample covariance against K.  Var of a z_i conj(z_j) mean
  // is at most K_ii K_jj tau / n, tau the J0^2 correlation time.
  const double tau2 = j0_correlation_time(in.fm, kStreamIdft, 2);
  auto check_covariance = [&](const CovarianceEstimator& est,
                              const char* label) {
    double worst = 0.0;
    for (std::size_t i = 0; i < kStreamBranches; ++i) {
      for (std::size_t j = i; j < kStreamBranches; ++j) {
        const double sigma = std::sqrt(in.covariance(i, i).real() *
                                       in.covariance(j, j).real() * tau2 /
                                       static_cast<double>(est.count()));
        worst = std::max(
            worst, std::abs(est.estimate(i, j) - in.covariance(i, j)) / sigma);
      }
    }
    report.info[std::string("check.covariance_sigmas.") + label] = worst;
    report.check(worst <= kSigmas,
                 std::string("stream ") + label +
                     ": sample covariance off K by " + std::to_string(worst) +
                     " standard errors");
  };
  check_covariance(cov64, "f64");
  check_covariance(cov32, "f32");

  // Check 2: lagged autocorrelation against J0(2 pi fm d).  The Doppler
  // filter realises J0 only to within its own approximation error
  // (finite IDFT length), allowed for by kFilterAllowance.
  constexpr double kFilterAllowance = 0.02;
  auto check_acf = [&](const AcfEstimator& est, const char* label) {
    const double per_branch =
        static_cast<double>(est.samples()) / kStreamBranches;
    const double sigma = std::sqrt(tau2 / per_branch);
    double worst = 0.0;
    for (std::size_t k = 0; k < est.lags().size(); ++k) {
      const double d = static_cast<double>(est.lags()[k]);
      worst = std::max(worst, std::abs(est.rho(k) - bessel_j0(in.fm, d)));
    }
    report.info[std::string("check.acf_max_abs_error.") + label] = worst;
    report.check(worst <= kSigmas * sigma + kFilterAllowance,
                 std::string("stream ") + label +
                     ": autocorrelation off J0 by " + std::to_string(worst));
  };
  check_acf(acf64, "f64");
  check_acf(acf32, "f32");

  // Check 3: cursor blocks (batched overlap-save sweep) are bit-identical
  // to the keyed per-branch path for the same key.
  for (const auto& [index, block] : kept64) {
    report.check(bit_identical(block, s64.generate_block(in.seed_f64, index)),
                 "stream f64: cursor block " + std::to_string(index) +
                     " differs from generate_block");
  }
  for (const auto& [index, block] : kept32) {
    report.check(
        bit_identical(block, s32.generate_block_f32(in.seed_f32, index)),
        "stream f32: cursor block " + std::to_string(index) +
            " differs from generate_block_f32");
  }
}

// --- serve --------------------------------------------------------------------

void run_serve(const RunConfig& config, Report& report) {
  const ServeInputs in = make_serve_inputs(config.seed);
  const std::size_t rounds = serve_rounds(config);
  ChannelService service;

  std::vector<Session> sessions;
  sessions.reserve(kServeSpecs * kTenantsPerSpec);
  std::vector<std::size_t> spec_of;  // per session
  std::vector<PowerEstimator> power(kServeSpecs,
                                    PowerEstimator(kServeBranches));
  std::vector<Session*> pulled;
  std::vector<Session*> tapped;
  std::vector<std::size_t> tapped_spec;
  std::vector<CrossingCounter> crossings;
  constexpr std::size_t kRhoIndex = 1;  // thresholds {0.5, 1.0}: rho = 1
  // Taps observe every block but never publish on their own: a publish
  // re-evaluates the health references and takes hundreds of ms, which
  // would swamp the serving path in the rounds.  It is timed apart, by
  // the metrics.tap_publish_ms probe.
  rfade::metrics::MetricsTapConfig tap_config;
  tap_config.publish_every_blocks = 0;

  // Set-up: every tenant opened and holding its first block.
  std::vector<double> ready_s;
  for (std::size_t s = 0; s < kServeSpecs; ++s) {
    for (std::size_t t = 0; t < kTenantsPerSpec; ++t) {
      const Clock::time_point start = Clock::now();
      std::shared_ptr<const rfade::service::CompiledChannel> channel;
      {
        ScopedSpan span("service.compile.miss");
        const std::uint64_t misses = service.cache_stats().misses;
        channel = service.compile(*in.specs[s].spec);
        if (service.cache_stats().misses == misses) {
          span.rename("service.compile.hit");
        }
      }
      {
        ScopedSpan span("service.open_session");
        sessions.push_back(ChannelService::open_session(
            channel, in.tenant_seeds[s * kTenantsPerSpec + t]));
      }
      Session& session = sessions.back();
      spec_of.push_back(s);
      const bool tap = in.specs[s].tapped && t < kTappedPerSpec;
      if (tap) session.enable_metrics(tap_config);
      CMatrix first;
      {
        ScopedSpan span("service.session_next_block");
        first = session.next_block();
      }
      ready_s.push_back(seconds_between(start, Clock::now()));
      power[s].add(first);
      if (tap) {
        std::vector<double> levels(kServeBranches);
        const CMatrix& k = channel->plan()->effective_covariance();
        for (std::size_t j = 0; j < kServeBranches; ++j) {
          levels[j] = tap_config.thresholds[kRhoIndex] *
                      std::sqrt(k(j, j).real());
        }
        crossings.emplace_back(std::move(levels));
        crossings.back().add(first);
      }
    }
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (sessions[i].metrics_tap()) {
      tapped.push_back(&sessions[i]);
      tapped_spec.push_back(spec_of[i]);
    } else {
      pulled.push_back(&sessions[i]);
    }
  }
  report.metrics["setup_s"] = {
      seconds_between(process_start(), Clock::now()), "s"};

  report.info["serve.setup_open_ms.median"] = ms(median(ready_s));
  ready_s.clear();
  // One transient tenant per round (on spec r mod 6, opened, served its
  // first block and dropped between rounds) times tenant readiness under
  // the same conditions as the rounds.
  SeedRng arrival_seeds(derive_seed(config.seed, 15));
  auto arrive = [&](std::size_t s) {
    const Clock::time_point start = Clock::now();
    ScopedSpan span("serve.arrival");
    std::shared_ptr<const rfade::service::CompiledChannel> channel;
    {
      ScopedSpan compile("service.compile.hit");
      channel = service.compile(*in.specs[s].spec);
    }
    std::optional<Session> session;
    {
      ScopedSpan open("service.open_session");
      session.emplace(
          ChannelService::open_session(channel, arrival_seeds.next()));
    }
    CMatrix first;
    {
      ScopedSpan next("service.session_next_block");
      first = session->next_block();
    }
    ready_s.push_back(seconds_between(start, Clock::now()));
    power[s].add(first);
  };

  HostSpeed host;
  const std::size_t check_round =
      *sampled_rounds(config.seed, 12, rounds, 1).begin();
  std::vector<std::uint64_t> check_index;
  std::vector<CMatrix> check_blocks;
  std::vector<CMatrix> tapped_blocks(tapped.size());
  std::vector<double> round_s;
  round_s.reserve(rounds);
  double samples_per_round = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (r == check_round) {
      for (const Session* s : pulled) check_index.push_back(s->next_block_index());
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<CMatrix> blocks;
    {
      ScopedSpan round("serve.round");
      {
        ScopedSpan span("service.pull_blocks");
        blocks = ChannelService::pull_blocks(pulled);
      }
      for (std::size_t i = 0; i < tapped.size(); ++i) {
        ScopedSpan span("service.session_next_block");
        tapped_blocks[i] = tapped[i]->next_block();
      }
    }
    round_s.push_back(seconds_between(t0, Clock::now()));
    for (int i = 0; i < 4; ++i) host.sample();

    double samples = 0.0;
    for (std::size_t i = 0; i < pulled.size(); ++i) {
      power[spec_of[static_cast<std::size_t>(pulled[i] - sessions.data())]]
          .add(blocks[i]);
      samples += static_cast<double>(blocks[i].size());
    }
    for (std::size_t i = 0; i < tapped.size(); ++i) {
      power[tapped_spec[i]].add(tapped_blocks[i]);
      crossings[i].add(tapped_blocks[i]);
      samples += static_cast<double>(tapped_blocks[i].size());
    }
    samples_per_round = samples;
    if (r == check_round) check_blocks = std::move(blocks);
    arrive(r % kServeSpecs);
  }

  report_rounds(report, round_s, samples_per_round, host);
  report_ready(report, ready_s, host);
  report_cache(report, service.cache_stats());
  report.attempted = sessions.size() * (1 + rounds) + rounds;
  report.info["count.blocks"] = static_cast<double>(report.attempted);
  double total_samples = 0.0;
  for (const PowerEstimator& p : power) {
    total_samples += static_cast<double>(p.rows() * kServeBranches);
  }
  report.info["count.samples"] = total_samples;
  report.info["count.sessions_opened"] =
      static_cast<double>(sessions.size() + rounds);

  // Check 1: one pull_blocks round equals per-tenant generate_block.
  for (std::size_t i = 0; i < pulled.size(); ++i) {
    report.check(
        bit_identical(check_blocks[i], pulled[i]->generate_block(check_index[i])),
        "serve: pull_blocks block of tenant " + std::to_string(i) +
            " differs from Session::generate_block");
  }

  // Check 2: mean branch power per family against the spec-derived power.
  double worst = 0.0;
  for (std::size_t s = 0; s < kServeSpecs; ++s) {
    const ServeSpec& spec = in.specs[s];
    const double rows = static_cast<double>(power[s].rows());
    for (std::size_t j = 0; j < kServeBranches; ++j) {
      const PowerReference ref = expected_power(spec, j, rows);
      double allowance = kSigmas * ref.standard_error;
      if (spec.spec->family() == rfade::service::FadingFamily::Twdp) {
        // Residual of the two-wave cross term 2 v1 v2 cos(2 pi df l) over
        // one tenant timeline (all tenants share the time axis).
        const double timeline = rows / kTenantsPerSpec;
        allowance += spec.k_factor * spec.covariance(j, j).real() /
                     (M_PI * spec.second_fm * timeline);
      }
      const double error = std::abs(power[s].mean(j) - ref.power);
      worst = std::max(worst, error / allowance);
      report.check(error <= allowance,
                   "serve " + spec.name + " branch " + std::to_string(j) +
                       ": mean power " + std::to_string(power[s].mean(j)) +
                       " vs expected " + std::to_string(ref.power));
    }
  }
  report.info["check.power_error_over_allowance"] = worst;

  // Check 3: the taps saw every next_block, their up-crossing count at
  // rho = 1 equals the benchmark's own count over the same blocks, and
  // the rate matches Rice's sqrt(2 pi) fm rho e^{-rho^2}.
  std::uint64_t tap_blocks = 0;
  std::vector<double> tap_crossings(kServeSpecs, 0.0);
  std::vector<double> tap_samples(kServeSpecs, 0.0);
  for (std::size_t i = 0; i < tapped.size(); ++i) {
    const auto& tap = tapped[i]->metrics_tap();
    tap_blocks += tap->blocks_observed();
    report.check(tap->blocks_observed() == rounds + 1,
                 "serve: tap " + std::to_string(i) + " observed " +
                     std::to_string(tap->blocks_observed()) + " blocks");
    std::uint64_t counted = 0;
    for (std::size_t j = 0; j < kServeBranches; ++j) {
      const auto stats = tap->level_crossings()->finalize(j, kRhoIndex);
      counted += stats.up_crossings;
      tap_samples[tapped_spec[i]] += static_cast<double>(stats.samples);
    }
    tap_crossings[tapped_spec[i]] += static_cast<double>(counted);
    report.check(counted == crossings[i].crossings(),
                 "serve: tap " + std::to_string(i) + " counted " +
                     std::to_string(counted) + " up-crossings, benchmark " +
                     std::to_string(crossings[i].crossings()));
  }
  // Sampling at discrete instants misses crossing pairs closer than one
  // sample, and the finite Doppler filter is not exactly J0: allowed for
  // by kDiscreteAllowance (relative).
  constexpr double kDiscreteAllowance = 0.03;
  for (std::size_t s = 0; s < kServeSpecs; ++s) {
    if (tap_samples[s] == 0.0) continue;
    const double rice =
        std::sqrt(2.0 * M_PI) * in.specs[s].fm * std::exp(-1.0);
    const double rate = tap_crossings[s] / tap_samples[s];
    const double sigma = std::sqrt(tap_crossings[s]) / tap_samples[s];
    report.info["check.lcr_relative_error." + in.specs[s].name] =
        rate / rice - 1.0;
    report.check(std::abs(rate - rice) <=
                     kSigmas * sigma + kDiscreteAllowance * rice,
                 "serve " + in.specs[s].name + ": up-crossing rate " +
                     std::to_string(rate) + " vs Rice " + std::to_string(rice));
  }
  report.info["metrics.tap_blocks"] = static_cast<double>(tap_blocks);
}

// --- churn --------------------------------------------------------------------

void run_churn(const RunConfig& config, Report& report) {
  const std::size_t arrivals = churn_arrivals(config);
  const ChurnInputs in = make_churn_inputs(config.seed, arrivals);
  ChannelService service(kChurnCacheCapacity);

  const std::set<std::size_t> sampled =
      sampled_rounds(config.seed, 13, arrivals, 4);
  std::vector<std::pair<std::size_t, CMatrix>> kept;
  std::vector<double> arrival_s;
  std::vector<double> ready_s;
  arrival_s.reserve(arrivals);
  ready_s.reserve(arrivals);
  LruModel model(kChurnCacheCapacity);
  HostSpeed host;
  double worst_pd_error = 0.0;
  // Set-up ends with the first arrival served (cold: pool start, first
  // compile and engine build); the timed arrivals are the rest.
  for (std::size_t a = 0; a < arrivals; ++a) {
    if (a == 1) {
      report.metrics["setup_s"] = {
          seconds_between(process_start(), Clock::now()), "s"};
      arrival_s.clear();
      ready_s.clear();
    }
    const std::size_t which = in.arrivals[a];
    const std::uint64_t misses_before = service.cache_stats().misses;
    std::shared_ptr<const rfade::service::CompiledChannel> channel;
    CMatrix first;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point ready;
    {
      ScopedSpan span("churn.arrival");
      {
        ScopedSpan compile("service.compile.miss");
        channel = service.compile(in.specs[which]);
        if (service.cache_stats().misses == misses_before) {
          compile.rename("service.compile.hit");
        }
      }
      std::optional<Session> session;
      {
        ScopedSpan open("service.open_session");
        session.emplace(
            ChannelService::open_session(channel, in.arrival_seeds[a]));
      }
      {
        ScopedSpan next("service.session_next_block");
        first = session->next_block();
      }
      ready = Clock::now();
    }
    arrival_s.push_back(seconds_between(t0, Clock::now()));
    ready_s.push_back(seconds_between(t0, ready));
    host.sample();

    model.access(which);
    if (service.cache_stats().misses != misses_before) {
      // A fresh compile: its effective covariance must be Hermitian PSD,
      // and equal to a PD target.
      const CMatrix& k = channel->plan()->effective_covariance();
      double scale = 0.0;
      for (std::size_t j = 0; j < k.rows(); ++j) {
        scale = std::max(scale, k(j, j).real());
      }
      report.check(hermitian_defect(k) <= 1e-12 * scale,
                   "churn: spec " + std::to_string(which) +
                       " compiled a non-Hermitian covariance");
      report.check(cholesky_succeeds(k, 1e-9 * scale),
                   "churn: spec " + std::to_string(which) +
                       " compiled a covariance that is not PSD");
      if (in.indefinite[which]) {
        report.check(!cholesky_succeeds(in.targets[which], 0.0),
                     "churn: target " + std::to_string(which) +
                         " is not indefinite");
      } else {
        const double error = relative_max_difference(k, in.targets[which]);
        worst_pd_error = std::max(worst_pd_error, error);
        report.check(error <= 1e-9, "churn: spec " + std::to_string(which) +
                                        " compiled K_bar != K (relative " +
                                        std::to_string(error) + ")");
      }
    }
    if (sampled.count(a) != 0) kept.emplace_back(a, std::move(first));
  }

  const double samples_per_arrival =
      static_cast<double>(kChurnIdft * kChurnBranches);
  report_rounds(report, arrival_s, samples_per_arrival, host);
  report_ready(report, ready_s, host);
  const rfade::service::PlanCacheStats stats = service.cache_stats();
  report_cache(report, stats);
  report.attempted = arrivals;
  report.info["count.blocks"] = static_cast<double>(arrivals);
  report.info["count.samples"] =
      static_cast<double>(arrivals) * samples_per_arrival;
  report.info["count.sessions_opened"] = static_cast<double>(arrivals);
  report.info["sessions_per_s"] =
      report.metrics["samples_per_s"].value / samples_per_arrival;
  report.info["check.pd_relative_error"] = worst_pd_error;

  report.check(stats.hits + stats.misses == arrivals,
               "churn: cache hits + misses != arrivals");
  report.check(stats.hits == model.hits() && stats.misses == model.misses() &&
                   stats.evictions == model.evictions(),
               "churn: cache misses/evictions " + std::to_string(stats.misses) +
                   "/" + std::to_string(stats.evictions) + " vs LRU model " +
                   std::to_string(model.misses()) + "/" +
                   std::to_string(model.evictions()));

  // First blocks equal a fresh compile's keyed block 0 and cursor block 0.
  for (const auto& [a, block] : kept) {
    const auto fresh = in.specs[in.arrivals[a]].compile();
    FadingStream stream = fresh->make_stream(in.arrival_seeds[a]);
    report.check(
        bit_identical(block, stream.generate_block(in.arrival_seeds[a], 0)),
        "churn: arrival " + std::to_string(a) +
            " first block differs from a fresh compile's generate_block");
    report.check(bit_identical(block, stream.next_block()),
                 "churn: arrival " + std::to_string(a) +
                     " first block differs from a fresh cursor");
  }
}

}  // namespace perfbench
