// Tests for the observability subsystem (obs/): metrics registry +
// exporters, trace spans, telemetry hub, profiler -- plus
// integration through the instrumented SpaceCDN router.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/router.hpp"

namespace spacecdn::obs {
namespace {

std::size_t count_lines(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, CounterCountsPerLabelSet) {
  MetricsRegistry reg;
  reg.counter("requests").inc();
  reg.counter("requests").inc(2);
  reg.counter("requests", {{"tier", "ground"}}).inc(5);
  EXPECT_EQ(reg.counter_value("requests"), 3u);
  EXPECT_EQ(reg.counter_value("requests", {{"tier", "ground"}}), 5u);
  EXPECT_EQ(reg.counter_value("requests", {{"tier", "space"}}), 0u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(Metrics, LabelSetOrderInsensitive) {
  const LabelSet a{{"b", "1"}, {"a", "2"}};
  const LabelSet b{{"a", "2"}, {"b", "1"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.prometheus(), "{a=\"2\",b=\"1\"}");
  MetricsRegistry reg;
  reg.counter("x", a).inc();
  reg.counter("x", b).inc();
  EXPECT_EQ(reg.counter_value("x", a), 2u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  reg.gauge("depth").set(4.0);
  reg.gauge("depth").add(-1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 2.5);
}

TEST(Metrics, HistogramTracksMomentsAndBins) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat", {}, {0.0, 10.0, 10});
  for (const double x : {0.5, 1.5, 1.5, 9.5}) h.observe(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.0);
  EXPECT_EQ(h.bins().count(0), 1u);
  EXPECT_EQ(h.bins().count(1), 2u);
  EXPECT_EQ(h.bins().count(9), 1u);
  // Options only apply at family creation; later lookups reuse them.
  EXPECT_EQ(reg.histogram("lat", {}, {0.0, 1.0, 2}).bins().bins(), 10u);
}

TEST(Metrics, PrometheusExportFormat) {
  MetricsRegistry reg;
  reg.counter("spacecdn_fetch_total", {{"tier", "ground"}}).inc(7);
  reg.gauge("spacecdn_sats_down").set(3.0);
  HistogramMetric& h = reg.histogram("rtt_ms", {}, {0.0, 4.0, 2});
  h.observe(1.0);
  h.observe(1.0);
  h.observe(3.0);

  std::ostringstream os;
  reg.export_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE spacecdn_fetch_total counter"), std::string::npos);
  EXPECT_NE(text.find("spacecdn_fetch_total{tier=\"ground\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spacecdn_sats_down gauge"), std::string::npos);
  EXPECT_NE(text.find("spacecdn_sats_down 3"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_sum 5"), std::string::npos);
  EXPECT_NE(text.find("rtt_ms_count 3"), std::string::npos);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "a\"b\\c\nd"}}).inc();
  std::ostringstream os;
  reg.export_prometheus(os);
  EXPECT_NE(os.str().find("c{k=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos);
}

TEST(Metrics, PrometheusHelpConformance) {
  // Exposition-format conformance: # HELP precedes # TYPE for every family
  // that has help text, histograms always carry HELP (fallback text when
  // none was registered), and HELP escapes backslash and newline only
  // (quotes are legal in help text, unlike in label values).
  MetricsRegistry reg;
  reg.counter("spacecdn_req_total").inc(3);
  reg.set_help("spacecdn_req_total", "Requests \"offered\" \\ per\nrun.");
  reg.counter("spacecdn_unhelped_total").inc();
  reg.histogram("spacecdn_rtt_ms", {}, {0.0, 4.0, 2}).observe(1.0);

  std::ostringstream os;
  reg.export_prometheus(os);
  const std::string text = os.str();

  const auto help = text.find(
      "# HELP spacecdn_req_total Requests \"offered\" \\\\ per\\nrun.\n");
  const auto type = text.find("# TYPE spacecdn_req_total counter");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);

  // No registered help: counters stay HELP-less, histograms get a fallback.
  EXPECT_EQ(text.find("# HELP spacecdn_unhelped_total"), std::string::npos);
  const auto hist_help = text.find("# HELP spacecdn_rtt_ms ");
  const auto hist_type = text.find("# TYPE spacecdn_rtt_ms histogram");
  ASSERT_NE(hist_help, std::string::npos);
  ASSERT_NE(hist_type, std::string::npos);
  EXPECT_LT(hist_help, hist_type);
}

TEST(Metrics, HelpMergeKeepsFirstRegistration) {
  MetricsRegistry a;
  a.counter("m").inc();
  a.set_help("m", "first");
  MetricsRegistry b;
  b.counter("m").inc();
  b.set_help("m", "second");
  b.set_help("other", "only in b");
  a.merge(b);
  EXPECT_EQ(a.help("m"), "first");
  EXPECT_EQ(a.help("other"), "only in b");
  EXPECT_EQ(a.help("absent"), "");
}

TEST(Metrics, JsonExportParsesAsExpectedShape) {
  MetricsRegistry reg;
  reg.counter("hits", {{"tier", "space"}}).inc(2);
  reg.gauge("load").set(0.5);
  reg.histogram("ms", {}, {0.0, 10.0, 10}).observe(4.0);

  std::ostringstream os;
  reg.export_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hits\",\"labels\":{\"tier\":\"space\"},\"value\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"count\":1,\"sum\":4"), std::string::npos);
}

TEST(Metrics, MergeFoldsEveryKind) {
  MetricsRegistry a, b;
  a.counter("c").inc(1);
  b.counter("c").inc(2);
  b.counter("only_b", {{"l", "x"}}).inc(4);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h", {}, {0.0, 10.0, 10}).observe(2.5);
  b.histogram("h", {}, {0.0, 10.0, 10}).observe(7.5);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b", {{"l", "x"}}), 4u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);
  EXPECT_EQ(a.histogram("h", {}, {0.0, 10.0, 10}).count(), 2u);
}

// Everything from here to the end of the file exercises *installed* sinks,
// which SPACECDN_NO_TELEMETRY compiles away by design (the accessors become
// constexpr nullptr).  The pure-data types above stay testable either way.
#ifndef SPACECDN_NO_TELEMETRY

TEST(Metrics, ClearBumpsEpochAndHandlesRebind) {
  MetricsRegistry reg;
  const TelemetryScope scope({.metrics = &reg});
  CounterHandle handle("rebind_test");
  handle.inc();
  EXPECT_EQ(reg.counter_value("rebind_test"), 1u);
  const std::uint64_t before = reg.epoch();
  reg.clear();
  EXPECT_NE(reg.epoch(), before);
  handle.inc();  // must not touch the counter freed by clear()
  EXPECT_EQ(reg.counter_value("rebind_test"), 1u);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(Metrics, HandlesFollowInstalledRegistry) {
  MetricsRegistry a, b;
  CounterHandle counter("follow");
  HistogramHandle histogram("follow_ms", {}, {0.0, 10.0, 10});
  {
    const TelemetryScope scope({.metrics = &a});
    counter.inc();
    histogram.observe(1.0);
  }
  counter.inc();  // nothing installed: dropped
  {
    const TelemetryScope scope({.metrics = &b});
    counter.inc(2);
    histogram.observe(2.0);
  }
  EXPECT_EQ(a.counter_value("follow"), 1u);
  EXPECT_EQ(b.counter_value("follow"), 2u);
  EXPECT_EQ(a.histogram("follow_ms", {}, {0.0, 10.0, 10}).count(), 1u);
  EXPECT_EQ(b.histogram("follow_ms", {}, {0.0, 10.0, 10}).count(), 1u);
}

#endif  // SPACECDN_NO_TELEMETRY

// ------------------------------------------------------------------- traces

Trace sample_trace() {
  TraceBuilder builder("fetch", Milliseconds{100.0});
  builder.attr(builder.root(), "item", "42");
  const std::uint32_t attempt = builder.open("attempt");
  builder.set_duration(attempt, Milliseconds{30.0});
  const std::uint32_t tier = builder.open("tier:ground", attempt);
  builder.set_start(tier, Milliseconds{5.0});
  builder.set_duration(tier, Milliseconds{25.0});
  builder.metric(tier, "hops", 3.0);
  const std::uint32_t backoff = builder.open("backoff");
  builder.set_start(backoff, Milliseconds{30.0});
  builder.set_duration(backoff, Milliseconds{10.0});
  builder.set_duration(builder.root(), Milliseconds{40.0});
  return builder.finish(false);
}

TEST(Trace, BuilderNestsSpans) {
  const Trace trace = sample_trace();
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.spans[0].name, "fetch");
  EXPECT_EQ(trace.spans[1].parent, 0u);
  EXPECT_EQ(trace.spans[2].parent, 1u);
  EXPECT_EQ(trace.depth(0), 0u);
  EXPECT_EQ(trace.depth(1), 1u);
  EXPECT_EQ(trace.depth(2), 2u);
  EXPECT_DOUBLE_EQ(trace.total().value(), 40.0);
  // Direct children of the root (attempt + backoff) account for the total.
  EXPECT_DOUBLE_EQ(trace.children_total().value(), 40.0);
  EXPECT_FALSE(trace.failed);
}

TEST(Trace, JsonlLineCarriesSpansAndAttrs) {
  std::ostringstream os;
  write_jsonl(os, sample_trace());
  const std::string line = os.str();
  EXPECT_EQ(line.find("{\"trace_id\":"), 0u);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"fetch\""), std::string::npos);
  EXPECT_NE(line.find("\"at_ms\":100"), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\":40"), std::string::npos);
  EXPECT_NE(line.find("\"spans\":["), std::string::npos);
  EXPECT_NE(line.find("\"item\":\"42\""), std::string::npos);
  EXPECT_NE(line.find("\"hops\":3"), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
            std::count(line.begin(), line.end(), '}'));
}

TEST(Trace, TracerStreamsJsonlAndRetains) {
  std::ostringstream os;
  Tracer tracer;
  tracer.set_jsonl_sink(&os);
  tracer.set_retain(2);
  for (int i = 0; i < 3; ++i) tracer.record(sample_trace());
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(count_lines(os.str()), 3u);
  EXPECT_EQ(tracer.retained().size(), 2u);
  // Ids are assigned in record order; last() is the most recent.
  EXPECT_EQ(tracer.last().id, 3u);
}

TEST(Trace, WaterfallRendersEverySpan) {
  std::ostringstream os;
  render_waterfall(os, sample_trace(), 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("fetch"), std::string::npos);
  EXPECT_NE(out.find("tier:ground"), std::string::npos);
  EXPECT_NE(out.find("backoff"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_GE(count_lines(out), 4u);
}

// ---------------------------------------------------------------- time series

/// A one-column series with `values[i]` in window [i s, (i+1) s].
TimeSeries one_column_series(std::string column, const std::vector<double>& values) {
  TimeSeries series;
  series.columns = {std::move(column)};
  for (std::size_t i = 0; i < values.size(); ++i) {
    series.windows.push_back({.index = i,
                              .start = Milliseconds{1'000.0 * static_cast<double>(i)},
                              .end = Milliseconds{1'000.0 * static_cast<double>(i + 1)},
                              .values = {values[i]}});
  }
  return series;
}

TEST(TimeSeries, ChecksumIsDeterministicAndShapeSensitive) {
  const auto checksum = [](double scale) {
    return one_column_series("v", {1.0 * scale, 2.0 * scale}).checksum();
  };
  EXPECT_EQ(checksum(1.0), checksum(1.0));
  EXPECT_NE(checksum(1.0), checksum(2.0));
  // Window bounds are part of the digest, not just the values.
  TimeSeries shifted = one_column_series("v", {1.0, 2.0});
  shifted.windows[1].end = Milliseconds{2'500.0};
  EXPECT_NE(shifted.checksum(), checksum(1.0));
}

TEST(TimeSeries, CsvAndJsonlExportShape) {
  const TimeSeries series = one_column_series("depth", {2.5});

  std::ostringstream csv;
  series.write_csv(csv, "on");
  EXPECT_EQ(csv.str(),
            "run,window,start_ms,end_ms,depth\non,0,0,1000,2.5\n");

  std::ostringstream bare;
  series.write_csv(bare, /*run=*/{}, /*header=*/false);
  EXPECT_EQ(bare.str(), "0,0,1000,2.5\n");

  std::ostringstream jsonl;
  series.write_jsonl(jsonl, "on");
  EXPECT_EQ(jsonl.str(),
            "{\"run\":\"on\",\"window\":0,\"start_ms\":0,\"end_ms\":1000,"
            "\"depth\":2.5}\n");
}

// --------------------------------------------------------- incident timeline

TEST(Timeline, ExportsInSimTimeOrderWithStableTies) {
  IncidentTimeline tl;
  tl.record(Milliseconds{200.0}, "fault.recover", "gateway:1");
  tl.record(Milliseconds{100.0}, "fault.fail", "gateway:1");
  tl.record(Milliseconds{100.0}, "breaker.open", "gateway:1");

  std::ostringstream os;
  tl.write_jsonl(os);
  const std::string out = os.str();
  const auto fail = out.find("fault.fail");
  const auto open = out.find("breaker.open");
  const auto recover = out.find("fault.recover");
  // Sorted by sim-time; the two t=100 events keep insertion order.
  EXPECT_LT(fail, open);
  EXPECT_LT(open, recover);
}

TEST(Timeline, JsonlShapeOmitsEmptyDetailAndZeroValue) {
  IncidentTimeline tl;
  tl.record(Milliseconds{5'000.0}, "slo.alert-fire", "slo:deadline",
            "burn \"hot\"", 23.5);
  tl.record(Milliseconds{6'000.0}, "breaker.closed", "gateway:2");

  std::ostringstream os;
  tl.write_jsonl(os, "off");
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"run\":\"off\",\"at_ms\":5000,\"kind\":\"slo.alert-fire\","
                     "\"subject\":\"slo:deadline\",\"detail\":\"burn \\\"hot\\\"\","
                     "\"value\":23.5}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"run\":\"off\",\"at_ms\":6000,\"kind\":\"breaker.closed\","
                     "\"subject\":\"gateway:2\"}"),
            std::string::npos);
}

TEST(Timeline, CountsByDottedPrefix) {
  IncidentTimeline tl;
  tl.record(Milliseconds{1.0}, "breaker.open", "gateway:0");
  tl.record(Milliseconds{2.0}, "breaker.half-open", "gateway:0");
  tl.record(Milliseconds{3.0}, "breaker.closed", "gateway:0");
  tl.record(Milliseconds{4.0}, "fault.fail", "satellite:7");
  EXPECT_EQ(tl.count("breaker."), 3u);
  EXPECT_EQ(tl.count("breaker.open"), 1u);
  EXPECT_EQ(tl.count("fault."), 1u);
  EXPECT_EQ(tl.count("slo."), 0u);
  EXPECT_EQ(tl.size(), 4u);
}

TEST(Timeline, ChecksumIgnoresRunLabelButNotContent) {
  IncidentTimeline a;
  a.record(Milliseconds{1.0}, "fault.fail", "gateway:3");
  IncidentTimeline b;
  b.record(Milliseconds{1.0}, "fault.fail", "gateway:3");
  EXPECT_EQ(a.checksum(), b.checksum());
  b.record(Milliseconds{2.0}, "fault.recover", "gateway:3");
  EXPECT_NE(a.checksum(), b.checksum());
}

// ----------------------------------------------------------------- SLO engine

TEST(Slo, BurnRateMeasuresBudgetConsumption) {
  // objective 0.9 -> 10% error budget; a window that is 50% bad burns at
  // 5x the sustainable rate.
  SloTracker slo({.objective = 0.9,
                  .short_window = Milliseconds{2'000.0},
                  .long_window = Milliseconds{4'000.0},
                  .burn_threshold = 3.0,
                  .bucket = Milliseconds{1'000.0}});
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{500.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{500.0}, false);
  EXPECT_DOUBLE_EQ(slo.burn_rate(Milliseconds{1'000.0}, Milliseconds{1'000.0}),
                   5.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate(Milliseconds{1'000.0}, Milliseconds{4'000.0}),
                   5.0);  // trailing window clamps to recorded history
  EXPECT_DOUBLE_EQ(slo.budget_consumed(), 5.0);
}

TEST(Slo, FiresWhenBothWindowsBurnAndResolvesAfter) {
  SloTracker slo({.objective = 0.9,
                  .short_window = Milliseconds{1'000.0},
                  .long_window = Milliseconds{3'000.0},
                  .burn_threshold = 3.0,
                  .bucket = Milliseconds{1'000.0}});

  // Bucket 0: healthy.  Buckets 1-2: 50% bad (burn 5x > 3x threshold).
  for (int i = 0; i < 10; ++i) slo.record(Milliseconds{100.0}, true);
  slo.evaluate(Milliseconds{1'000.0});
  EXPECT_FALSE(slo.firing());

  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{1'100.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{1'100.0}, false);
  // Short window (bucket 1) burns 5x, but the long window still includes
  // the healthy bucket 0: 5/20 bad = 2.5x < 3x -- no page yet.
  slo.evaluate(Milliseconds{2'000.0});
  EXPECT_FALSE(slo.firing());

  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{2'100.0}, true);
  for (int i = 0; i < 5; ++i) slo.record(Milliseconds{2'100.0}, false);
  // Long window now 10/30 bad = 3.33x >= 3x and short 5x >= 3x: fire.
  slo.evaluate(Milliseconds{3'000.0});
  EXPECT_TRUE(slo.firing());
  EXPECT_EQ(slo.alerts_fired(), 1u);

  // Two healthy buckets: the short window (bucket 3) drops to 0 -- resolve.
  for (int i = 0; i < 10; ++i) slo.record(Milliseconds{3'100.0}, true);
  slo.evaluate(Milliseconds{4'000.0});
  EXPECT_FALSE(slo.firing());

  // Exactly the two transitions, in sim-time order.
  const std::vector<SloAlert>& seen = slo.alerts();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].firing);
  EXPECT_DOUBLE_EQ(seen[0].at.value(), 3'000.0);
  EXPECT_GE(seen[0].short_burn, 3.0);
  EXPECT_GE(seen[0].long_burn, 3.0);
  EXPECT_FALSE(seen[1].firing);
  EXPECT_DOUBLE_EQ(seen[1].at.value(), 4'000.0);
}

// ------------------------------------------------------------ telemetry hub

#ifndef SPACECDN_NO_TELEMETRY

TEST(Telemetry, ScopeInstallsAndRestores) {
  EXPECT_EQ(metrics(), nullptr);
  MetricsRegistry reg;
  Tracer tracer;
  {
    const TelemetryScope scope({.metrics = &reg, .tracer = &tracer});
    EXPECT_EQ(metrics(), &reg);
    EXPECT_EQ(obs::tracer(), &tracer);
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(Telemetry, SessionWiresEverything) {
  TelemetrySession session;
  EXPECT_EQ(metrics(), &session.metrics());
  EXPECT_EQ(tracer(), &session.tracer());
  EXPECT_EQ(profiler(), &session.profiler());
}

TEST(Telemetry, ProfileMacroRecordsSections) {
  Profiler profiler;
  {
    const TelemetryScope scope({.profiler = &profiler});
    for (int i = 0; i < 3; ++i) {
      SPACECDN_PROFILE("obs-test-section");
    }
  }
  {
    SPACECDN_PROFILE("not-installed");  // no profiler: must not record
  }
  EXPECT_EQ(profiler.calls("obs-test-section"), 3u);
  EXPECT_EQ(profiler.calls("not-installed"), 0u);
  std::ostringstream os;
  profiler.report(os);
  EXPECT_NE(os.str().find("obs-test-section"), std::string::npos);
}

// ----------------------------------------------- instrumented router (e2e)

const lsn::StarlinkNetwork& shell1() { return sim::shared_world().network(); }

cdn::ContentItem item(cdn::ContentId id) {
  return cdn::ContentItem{id, Megabytes{10.0}, data::Region::kEurope};
}

TEST(RouterTelemetry, FetchCountsTierAndEmitsTrace) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  session.tracer().set_retain(1);

  const geo::GeoPoint client = data::location(data::city("Maputo"));
  const auto serving = net.snapshot().serving_satellite(client, 25.0);
  ASSERT_TRUE(serving.has_value());
  (void)fleet.cache(*serving).insert(item(1), Milliseconds{0.0});

  des::Rng rng(3);
  const auto result =
      router.fetch(client, data::country("MZ"), item(1), rng, Milliseconds{0.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->tier, space::FetchTier::kServingSatellite);
  EXPECT_EQ(session.metrics().counter_value("spacecdn_fetch_served_total",
                                            {{"tier", "serving-satellite"}}),
            1u);

  const Trace& trace = session.tracer().last();
  EXPECT_EQ(trace.name, "fetch");
  EXPECT_FALSE(trace.failed);
  EXPECT_DOUBLE_EQ(trace.total().value(), result->rtt.value());
  const auto tier_span =
      std::find_if(trace.spans.begin(), trace.spans.end(), [](const TraceSpan& s) {
        return s.name == "tier:serving-satellite";
      });
  ASSERT_NE(tier_span, trace.spans.end());
  EXPECT_DOUBLE_EQ(tier_span->duration.value(), result->rtt.value());
}

TEST(RouterTelemetry, ResilientTraceChildrenSumToTotal) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  session.tracer().set_retain(1);

  des::Rng rng(4);
  const geo::GeoPoint client = data::location(data::city("Tokyo"));
  const auto result = router.fetch_resilient(client, data::country("JP"), item(2), rng,
                                             Milliseconds{0.0});
  ASSERT_TRUE(result.success);

  const Trace& trace = session.tracer().last();
  EXPECT_EQ(trace.name, "fetch_resilient");
  // The accounting invariant behind `ablation_churn --trace-out`: attempt
  // and backoff spans (the root's direct children) sum to total_latency.
  EXPECT_NEAR(trace.children_total().value(), result.total_latency.value(), 1e-9);
  EXPECT_NEAR(trace.total().value(), result.total_latency.value(), 1e-9);
}

TEST(RouterTelemetry, ExhaustedFetchCountsResilientFailure) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  session.tracer().set_retain(1);

  des::Rng rng(5);
  // A polar client has no shell-1 coverage: every attempt fails.
  const auto result = router.fetch_resilient({89.0, 0.0, 0.0}, data::country("US"),
                                             item(3), rng, Milliseconds{0.0});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(session.metrics().counter_value("spacecdn_resilient_failure_total"), 1u);
  // The failed fetch still records its own trace, marked failed.
  EXPECT_EQ(session.tracer().recorded(), 1u);
  EXPECT_TRUE(session.tracer().last().failed);
}

TEST(RouterTelemetry, CacheEventsCarryTierLabel) {
  const auto& net = shell1();
  space::SatelliteFleet fleet(net.constellation().size(),
                              space::FleetConfig{Megabytes{1000.0}});
  cdn::CdnDeployment ground(data::cdn_sites(), {});
  space::SpaceCdnRouter router(net, fleet, ground);

  TelemetrySession session;
  const geo::GeoPoint client = data::location(data::city("Maputo"));
  des::Rng rng(6);
  // Cold fetch goes to ground; the object is admitted into the serving
  // satellite, so the satellite tier records a miss and an insert.
  const auto first =
      router.fetch(client, data::country("MZ"), item(4), rng, Milliseconds{0.0});
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tier, space::FetchTier::kGround);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_miss_total",
                                            {{"tier", "satellite"}}),
            1u);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_insert_total",
                                            {{"tier", "satellite"}}),
            1u);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_miss_total",
                                            {{"tier", "ground"}}),
            1u);

  const auto second =
      router.fetch(client, data::country("MZ"), item(4), rng, Milliseconds{0.0});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tier, space::FetchTier::kServingSatellite);
  EXPECT_GE(session.metrics().counter_value("spacecdn_cache_hit_total",
                                            {{"tier", "satellite"}}),
            1u);
}

#endif  // SPACECDN_NO_TELEMETRY

}  // namespace
}  // namespace spacecdn::obs
