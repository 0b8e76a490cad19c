// Stand-alone probes of the traced mode: each times one public rfade
// call at the exact size a workload uses it, with inputs from the same
// seed.  A probe that stands in for a span sets its metric only when the
// workload did not make that call itself.

#include <array>
#include <functional>
#include <memory>

#include "checks.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/doppler/branch_source.hpp"
#include "rfade/fft/fft.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/eigen_hermitian.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/service/channel_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using rfade::doppler::BranchSourceDesign;
using rfade::doppler::StreamBackend;
using rfade::numeric::CMatrixF;
using rfade::service::ChannelService;
using rfade::service::Session;

namespace {

/// Median seconds per call of \p body over \p reps calls, after one
/// untimed warm-up call.  \p body receives the call index.
template <typename F>
double time_calls(std::size_t reps, F&& body) {
  body(std::size_t{0});
  std::vector<double> seconds;
  seconds.reserve(reps);
  for (std::size_t i = 1; i <= reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    body(i);
    seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return median(seconds);
}

template <typename T>
Block<T> gaussian_block(std::size_t rows, std::size_t cols, SeedRng& rng) {
  Block<T> w(rows, cols);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = std::complex<T>(static_cast<T>(rng.gaussian()),
                                  static_cast<T>(rng.gaussian()));
  }
  return w;
}

void set(Report& report, const std::string& name, double value,
         const char* unit) {
  report.metrics[name] = {value, unit};
}
bool missing(const Report& report, const std::string& name) {
  return report.metrics.count(name) == 0;
}

constexpr double kStreamSamples =
    static_cast<double>(kStreamIdft * kStreamBranches);

/// Median seconds per call of each of \p bodies, called in turn \p reps
/// times after one untimed warm-up round, so that every median comes from
/// the same stretch of host time.
template <std::size_t K, typename F>
std::array<double, K> time_interleaved(std::size_t reps,
                                       const std::array<F, K>& bodies) {
  for (const F& body : bodies) body(std::size_t{0});
  std::array<std::vector<double>, K> seconds;
  for (std::size_t i = 1; i <= reps; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      const Clock::time_point t0 = Clock::now();
      bodies[k](i);
      seconds[k].push_back(seconds_between(t0, Clock::now()));
    }
  }
  std::array<double, K> out{};
  for (std::size_t k = 0; k < K; ++k) out[k] = median(seconds[k]);
  return out;
}

/// The stream cursor's stages at N = 16, M = 4096.
void probe_stream_kernels(const StreamInputs& in, Report& report) {
  SeedRng rng(derive_seed(in.seed_f64, 21));
  const auto plan = rfade::core::ColoringPlan::create(in.covariance);
  const rfade::core::SamplePipeline pipeline(plan);
  rfade::service::ChannelService service;
  const auto channel64 = service.compile(*in.spec_f64);
  const auto channel32 = service.compile(*in.spec_f32);

  const auto design = std::make_shared<const BranchSourceDesign>(
      StreamBackend::OverlapSaveFir, kStreamIdft, in.fm, 0.5);
  std::vector<std::uint64_t> seeds(kStreamBranches);
  for (std::size_t j = 0; j < kStreamBranches; ++j) {
    seeds[j] = BranchSourceDesign::input_seed(in.seed_f64, j);
  }
  const double inv_sigma = 1.0 / std::sqrt(design->output_variance());

  // Reconciliation (reported, not asserted): a cursor block against its
  // stages, timed in turn at the same sizes and with the same pool as
  // the cursor.  fill_block covers tape fill, batched sweep and
  // normalise; color_block the GEMM and the mean/gain tail.  The cursor's
  // own block time is core.cursor_block_us, from the workload's spans
  // when it made the call.
  using Body = std::function<void(std::size_t)>;
  {
    auto stream = channel64->make_stream(in.seed_f64);
    rfade::doppler::OverlapSaveBatch batch(design, seeds, false);
    CMatrix w(kStreamIdft, kStreamBranches);
    const auto [cursor, fill, color] = time_interleaved<3, Body>(
        30, {[&](std::size_t) { const CMatrix z = stream.next_block(); },
             [&](std::size_t b) { batch.fill_block(b, inv_sigma, w, true); },
             [&](std::size_t) {
               const CMatrix z = pipeline.color_block(w, 1.0, 0);
             }});
    set(report, "doppler.ols_batch_fill_ns_per_sample.f64",
        fill * 1e9 / kStreamSamples, "ns");
    set(report, "core.color_block_ns_per_sample.f64",
        color * 1e9 / kStreamSamples, "ns");
    set(report, "core.cursor_residual_ns_per_sample",
        (cursor - fill - color) * 1e9 / kStreamSamples, "ns");
    report.info["probe.cursor_block_us.f64"] = cursor * 1e6;
    if (missing(report, "core.cursor_block_us.f64")) {
      set(report, "core.cursor_block_us.f64", cursor * 1e6, "us");
    }
  }
  {
    auto stream = channel32->make_stream(in.seed_f32);
    rfade::doppler::OverlapSaveBatch batch(design, seeds, true);
    CMatrixF w(kStreamIdft, kStreamBranches);
    const auto [cursor, fill, color] = time_interleaved<3, Body>(
        30, {[&](std::size_t) { const CMatrixF z = stream.next_block_f32(); },
             [&](std::size_t b) {
               batch.fill_block_f32(b, static_cast<float>(inv_sigma), w, true);
             },
             [&](std::size_t) {
               const CMatrixF z = pipeline.color_block_f32(w, 0);
             }});
    set(report, "doppler.ols_batch_fill_ns_per_sample.f32",
        fill * 1e9 / kStreamSamples, "ns");
    set(report, "core.color_block_ns_per_sample.f32",
        color * 1e9 / kStreamSamples, "ns");
    set(report, "core.cursor_residual_ns_per_sample.f32",
        (cursor - fill - color) * 1e9 / kStreamSamples, "ns");
    report.info["probe.cursor_block_us.f32"] = cursor * 1e6;
    if (missing(report, "core.cursor_block_us.f32")) {
      set(report, "core.cursor_block_us.f32", cursor * 1e6, "us");
    }
  }

  // Lane groups of the batched sweep: 8 doubles or 16 floats at 2M.
  const std::size_t points = 2 * kStreamIdft;
  {
    const rfade::fft::Pow2Plan fft(points);
    std::vector<double> re(points * 8), im(points * 8);
    for (std::size_t i = 0; i < re.size(); ++i) {
      re[i] = rng.gaussian();
      im[i] = rng.gaussian();
    }
    set(report, "fft.batched_transform_us_per_lane.f64",
        time_calls(30, [&](std::size_t i) {
          fft.transform_batched(re.data(), im.data(), 8,
                                i % 2 == 0 ? rfade::fft::Direction::Forward
                                           : rfade::fft::Direction::Inverse);
        }) * 1e6 / 8.0,
        "us");
  }
  {
    const rfade::fft::Pow2PlanF fft(points);
    std::vector<float> re(points * 16), im(points * 16);
    for (std::size_t i = 0; i < re.size(); ++i) {
      re[i] = static_cast<float>(rng.gaussian());
      im[i] = static_cast<float>(rng.gaussian());
    }
    set(report, "fft.batched_transform_us_per_lane.f32",
        time_calls(30, [&](std::size_t i) {
          fft.transform_batched(re.data(), im.data(), 16,
                                i % 2 == 0 ? rfade::fft::Direction::Forward
                                           : rfade::fft::Direction::Inverse);
        }) * 1e6 / 16.0,
        "us");
  }
  {
    std::vector<double> re(points), im(points);
    set(report, "random.planar_fill_ns_per_sample.f64",
        time_calls(100, [&](std::size_t i) {
          rfade::random::fill_complex_gaussians_planar(
              in.seed_f64, 0, 1.0, i * points, points, re.data(), im.data());
        }) * 1e9 / static_cast<double>(points),
        "ns");
    std::vector<float> re_f(points), im_f(points);
    set(report, "random.planar_fill_ns_per_sample.f32",
        time_calls(100, [&](std::size_t i) {
          rfade::random::fill_complex_gaussians_planar_f32(
              in.seed_f64, 0, 1.0, i * points, points, re_f.data(),
              im_f.data());
        }) * 1e9 / static_cast<double>(points),
        "ns");
  }
  {
    // Planar W (M x N) times L^T (N x N).
    std::vector<double> a_re(kStreamIdft * kStreamBranches),
        a_im(a_re.size());
    for (std::size_t i = 0; i < a_re.size(); ++i) {
      a_re[i] = rng.gaussian();
      a_im[i] = rng.gaussian();
    }
    const std::vector<double>& b_re = plan->coloring_transposed_re();
    const std::vector<double>& b_im = plan->coloring_transposed_im();
    CMatrix c(kStreamIdft, kStreamBranches);
    set(report, "numeric.gemm_planar_ns_per_sample.f64",
        time_calls(30, [&](std::size_t) {
          rfade::numeric::multiply_block_planar(
              a_re.data(), a_im.data(), kStreamIdft, kStreamBranches,
              b_re.data(), b_im.data(), kStreamBranches, c.data());
        }) * 1e9 / kStreamSamples,
        "ns");
    std::vector<float> af_re(a_re.begin(), a_re.end()),
        af_im(a_im.begin(), a_im.end());
    const auto& clone = plan->coloring_f32();
    CMatrixF c_f(kStreamIdft, kStreamBranches);
    set(report, "numeric.gemm_planar_ns_per_sample.f32",
        time_calls(30, [&](std::size_t) {
          rfade::numeric::multiply_block_planar(
              af_re.data(), af_im.data(), kStreamIdft, kStreamBranches,
              clone.transposed_re.data(), clone.transposed_im.data(),
              kStreamBranches, c_f.data());
        }) * 1e9 / kStreamSamples,
        "ns");
  }

  {
    const auto stream = channel64->make_stream(in.seed_f64);
    set(report, "core.keyed_block_us", time_calls(6, [&](std::size_t b) {
          const CMatrix z = stream.generate_block(in.seed_f64, b);
        }) * 1e6,
        "us");
  }

}

/// Serve-sized probes: per-family keyed blocks, per-backend branch
/// fills at M = 1024, the scalar FFT at 2M, the tap, and the serving
/// calls when the workload did not make them.
void probe_serve(const RunConfig& config, Report& report) {
  const ServeInputs in = make_serve_inputs(config.seed);
  ChannelService service;
  for (std::size_t s = 0; s < kServeSpecs; ++s) {
    const Session session = ChannelService::open_session(
        service.compile(*in.specs[s].spec), in.tenant_seeds[s * kTenantsPerSpec]);
    set(report, "service.keyed_block_us." + in.specs[s].name,
        time_calls(16, [&](std::size_t b) {
          const CMatrix z = session.generate_block(b);
        }) * 1e6,
        "us");
  }

  const double fm = in.specs[0].fm;
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    const BranchSourceDesign design(backend, kServeIdft, fm, 0.5);
    std::vector<rfade::numeric::cdouble> out(design.block_size());
    set(report,
        std::string("doppler.branch_fill_ns_per_sample.") +
            rfade::doppler::stream_backend_name(backend),
        time_calls(64, [&](std::size_t b) {
          auto source = design.make_source(in.tenant_seeds[0]);
          rfade::random::Rng rng =
              rfade::random::block_substream(in.tenant_seeds[0], b);
          source->advance(rng, b);
          source->fill(out);
        }) * 1e9 / static_cast<double>(design.block_size()),
        "ns");
  }
  {
    const rfade::fft::Pow2Plan fft(2 * kServeIdft);
    SeedRng rng(derive_seed(config.seed, 22));
    rfade::numeric::CVector data(2 * kServeIdft);
    for (auto& x : data) x = rng.complex_gaussian();
    set(report, "fft.pow2_transform_us", time_calls(200, [&](std::size_t i) {
          fft.transform(data, i % 2 == 0 ? rfade::fft::Direction::Forward
                                         : rfade::fft::Direction::Inverse);
        }) * 1e6,
        "us");
  }
  {
    // The tap on the tapped Rayleigh spec, fed that spec's blocks.
    Session session = ChannelService::open_session(
        service.compile(*in.specs[0].spec), in.tenant_seeds[0]);
    std::vector<CMatrix> blocks;
    for (std::size_t b = 0; b < 16; ++b) blocks.push_back(session.generate_block(b));
    rfade::metrics::MetricsTapConfig tap_config;
    tap_config.publish_every_blocks = 0;  // as in the serve workload
    const auto tap = session.enable_metrics(tap_config);
    set(report, "metrics.tap_observe_ns_per_sample",
        time_calls(64, [&](std::size_t i) { tap->observe(blocks[i % 16]); }) *
            1e9 / static_cast<double>(blocks[0].size()),
        "ns");
    set(report, "metrics.tap_publish_ms",
        time_calls(4, [&](std::size_t) { tap->publish(); }) * 1e3, "ms");
  }

  if (missing(report, "service.pull_blocks_ms") ||
      missing(report, "service.session_next_block_us")) {
    // The serve round's two calls, on serve's tenants.
    std::vector<Session> sessions;
    sessions.reserve(in.tenant_seeds.size());
    std::vector<Session*> pulled;
    std::vector<Session*> tapped;
    for (std::size_t s = 0; s < kServeSpecs; ++s) {
      const auto channel = service.compile(*in.specs[s].spec);
      for (std::size_t t = 0; t < kTenantsPerSpec; ++t) {
        sessions.push_back(ChannelService::open_session(
            channel, in.tenant_seeds[s * kTenantsPerSpec + t]));
        const bool tap = in.specs[s].tapped && t < kTappedPerSpec;
        if (tap) {
          rfade::metrics::MetricsTapConfig tap_config;
          tap_config.publish_every_blocks = 0;
          sessions.back().enable_metrics(tap_config);
        }
      }
    }
    for (Session& s : sessions) {
      (s.metrics_tap() ? tapped : pulled).push_back(&s);
    }
    if (missing(report, "service.pull_blocks_ms")) {
      set(report, "service.pull_blocks_ms", time_calls(8, [&](std::size_t) {
            const auto blocks = ChannelService::pull_blocks(pulled);
          }) * 1e3,
          "ms");
    }
    if (missing(report, "service.session_next_block_us")) {
      set(report, "service.session_next_block_us",
          time_calls(32, [&](std::size_t i) {
            const CMatrix z = tapped[i % tapped.size()]->next_block();
          }) * 1e6,
          "us");
    }
  }
}

/// Churn-sized probes: plan creation and eigendecomposition of the 24
/// N = 32 targets, Doppler designs at M = 2048, and the compile and
/// open calls when the workload did not make them.
void probe_churn(const RunConfig& config, Report& report) {
  const ChurnInputs in = make_churn_inputs(config.seed, 0);
  std::vector<double> plan_s, eigen_s;
  for (const CMatrix& target : in.targets) {
    plan_s.push_back(time_calls(1, [&](std::size_t) {
      const auto plan = rfade::core::ColoringPlan::create(target);
    }));
    eigen_s.push_back(time_calls(1, [&](std::size_t) {
      const auto eig = rfade::numeric::eigen_hermitian(target);
    }));
  }
  set(report, "core.plan_create_ms", median(plan_s) * 1e3, "ms");
  set(report, "numeric.eigen_ms", median(eigen_s) * 1e3, "ms");

  const double fm = in.specs[0].normalized_doppler();
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    set(report,
        std::string("doppler.design_ms.") +
            rfade::doppler::stream_backend_name(backend),
        time_calls(8, [&](std::size_t) {
          const BranchSourceDesign design(backend, kChurnIdft, fm, 0.5);
        }) * 1e3,
        "ms");
  }

  ChannelService service(kChurnSpecs);
  std::vector<std::shared_ptr<const rfade::service::CompiledChannel>> channels;
  std::vector<double> compile_s;
  for (const auto& spec : in.specs) {
    const Clock::time_point t0 = Clock::now();
    channels.push_back(service.compile(spec));
    compile_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (missing(report, "service.compile_ms")) {
    set(report, "service.compile_ms", median(compile_s) * 1e3, "ms");
  }
  if (missing(report, "service.open_session_ms")) {
    std::vector<double> open_s;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      open_s.push_back(time_calls(1, [&](std::size_t r) {
        const Session session =
            ChannelService::open_session(channels[i], i * 7 + r);
      }));
    }
    set(report, "service.open_session_ms", median(open_s) * 1e3, "ms");
  }
}

}  // namespace

void run_probes(const RunConfig& config, Report& report) {
  probe_stream_kernels(make_stream_inputs(config.seed), report);
  probe_serve(config, report);
  probe_churn(config, report);
}

}  // namespace perfbench
