// Figure 7: time series of CacheGen's adaptation under the 2 -> 0.2 -> 1
// Gbps bandwidth trace with a 4 s SLO: the unadaptive schemes blow through
// the deadline, CacheGen switches configurations mid-stream and lands inside
// it. Prints the bandwidth trace, the per-chunk decisions, and the
// %-of-KV-received time series for the three schemes.
#include "bench_common.h"
#include "net/link.h"
#include "streamer/streamer.h"

using namespace cachegen;

namespace {

// Unadapted transfer of the whole plan at a fixed level.
double FixedLevelFinish(const ContextPlan& plan, const BandwidthTrace& trace,
                        int level) {
  double t = 0.0;
  for (const auto& chunk : plan.chunks) {
    t += trace.TransferSeconds(chunk.bytes_per_level[static_cast<size_t>(level)], t);
  }
  return t;
}

void PrintProgress(const char* name, const std::vector<StreamStep>& steps,
                   double total_bytes) {
  std::printf("%-24s", name);
  double acc = 0.0;
  for (double t = 0.5; t <= 10.0; t += 0.5) {
    acc = 0.0;
    for (const auto& s : steps) {
      if (s.tx_end_s <= t) {
        acc += s.bytes;
      } else if (s.tx_start_s < t) {
        acc += s.bytes * (t - s.tx_start_s) / (s.tx_end_s - s.tx_start_s);
      }
    }
    std::printf(" %3.0f%%", 100.0 * acc / total_bytes);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 7: streaming adaptation walkthrough",
                     "Mistral-7B, 9.6K tokens, trace 0.6->0.06->0.3 Gbps, SLO 4 s,\n       GPU at 30% (busy server: recompute alone would take ~6.4 s)");
  Engine engine(bench::FastEngineOptions("mistral-7b"));
  const ContextPlan plan = engine.PlanFromCalibration(9600);
  const BandwidthTrace trace =
      BandwidthTrace::FromSegments({{0.0, 0.6}, {1.2, 0.06}, {2.4, 0.3}});
  const double kGpuShare = 0.3;

  std::printf("bandwidth (Gbps) at t=0..10s: ");
  for (double t = 0.0; t <= 10.0; t += 1.0) std::printf("%.1f ", trace.GbpsAt(t));
  std::printf("\n\n");

  // Baseline: 8-bit quantized KV, unadapted.
  const double quant_bytes =
      engine.calibration().quant_bytes_per_token.at(8) * 9600;
  const double quant_finish = trace.TransferSeconds(quant_bytes, 0.0);
  // CacheGen without adaptation: default level for every chunk.
  const double noadapt_finish = FixedLevelFinish(plan, trace, 1);

  // CacheGen with Algorithm-1 adaptation.
  Link link(trace);
  const KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/4.0,
                            DefaultEncodingLevels().size());
  const StreamResult adapted = streamer.Stream(plan, link, kGpuShare);

  TablePrinter table({"Scheme", "Finish (s)", "SLO 4s", "Quality"});
  table.AddRow({"Baseline KV quant (8-bit)", TablePrinter::Fmt(quant_finish, 2),
                quant_finish <= 4.0 ? "met" : "VIOLATED", "1.00"});
  table.AddRow({"CacheGen w/o adapt", TablePrinter::Fmt(noadapt_finish, 2),
                noadapt_finish <= 4.0 ? "met" : "VIOLATED",
                TablePrinter::Fmt(plan.quality_per_level[1], 2)});
  table.AddRow({"CacheGen", TablePrinter::Fmt(adapted.load_finish_s, 2),
                adapted.slo_violated ? "VIOLATED" : "met",
                TablePrinter::Fmt(adapted.quality, 2)});
  std::printf("%s\n", table.Render().c_str());

  std::printf("per-chunk decisions (CacheGen): ");
  for (const auto& s : adapted.steps) {
    if (s.config.text) {
      std::printf("[text] ");
    } else {
      std::printf("[L%d] ", s.config.level_id);
    }
  }
  std::printf("\n\n%% of context received over time (t = 0.5..10 s):\n");
  PrintProgress("CacheGen", adapted.steps, adapted.bytes_sent);
  return 0;
}
