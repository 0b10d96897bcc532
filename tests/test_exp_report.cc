/**
 * @file
 * Golden-file tests for the JSON/CSV/text reporters, plus the JSON
 * writer primitives and writeReports() round-trip. The report number
 * formatters are checked against printf as an oracle.
 *
 * The golden fixture's metrics are binary-exact doubles that depend
 * only on the grid point, so every summary statistic (mean, stddev,
 * percentiles) renders exactly and the expected documents can be
 * written out verbatim.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "exp/exp.hh"

namespace ich
{
namespace exp
{
namespace
{

/** 2-point, 2-trial fixture with point-only (trial-invariant) metrics. */
SweepResult
goldenResult()
{
    ScenarioSpec spec;
    spec.name = "golden";
    spec.description = "reporter fixture";
    spec.axes = {axisLabeledValues("k", {{"lo", 1.0}, {"hi", 2.0}})};
    spec.trials = 2;
    spec.baseSeed = 5;
    spec.run = [](const TrialContext &ctx) {
        MetricMap m;
        m["val"] = ctx.point.get("k") * 10.0;
        m["ber"] = ctx.point.get("k") * 0.25;
        return m;
    };
    RunnerOptions opts;
    opts.jobs = 1;
    return SweepRunner(opts).run(spec);
}

TEST(JsonWriter, PrimitivesAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value("a\"b\\c\nd");
    w.key("n").value(1.5);
    w.key("i").value(-3);
    w.key("u").value(std::uint64_t{18446744073709551615ull});
    w.key("t").value(true);
    w.key("z").null();
    w.key("arr").beginArray().value(1).value(2).endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"s\": \"a\\\"b\\\\c\\nd\",\n"
                       "  \"n\": 1.5,\n"
                       "  \"i\": -3,\n"
                       "  \"u\": 18446744073709551615,\n"
                       "  \"t\": true,\n"
                       "  \"z\": null,\n"
                       "  \"arr\": [\n"
                       "    1,\n"
                       "    2\n"
                       "  ]\n"
                       "}\n");
}

TEST(JsonWriter, NumberFormattingIsStable)
{
    EXPECT_EQ(JsonWriter::number(0.1), "0.1");
    EXPECT_EQ(JsonWriter::number(2816.9014084507), "2816.901408");
    EXPECT_EQ(JsonWriter::number(1.0 / 0.0), "null");
    EXPECT_EQ(JsonWriter::number(0.0 / 0.0), "null");
}

TEST(Report, GoldenJson)
{
    std::string json = jsonReport(goldenResult());

    std::ostringstream want;
    want << "{\n"
            "  \"scenario\": \"golden\",\n"
            "  \"description\": \"reporter fixture\",\n"
            "  \"base_seed\": 5,\n"
            "  \"trials_per_point\": 2,\n"
            "  \"points\": [\n";
    auto point = [&](const char *label, const char *value,
                     const char *ber, const char *val, bool last) {
        want << "    {\n"
                "      \"params\": {\n"
                "        \"k\": {\n"
                "          \"value\": " << value << ",\n"
                "          \"label\": \"" << label << "\"\n"
                "        }\n"
                "      },\n"
                "      \"metrics\": {\n";
        auto metric = [&](const char *name, const char *v, bool m_last) {
            want << "        \"" << name << "\": {\n"
                    "          \"count\": 2,\n"
                    "          \"mean\": " << v << ",\n"
                    "          \"stddev\": 0,\n"
                    "          \"min\": " << v << ",\n"
                    "          \"max\": " << v << ",\n"
                    "          \"p50\": " << v << ",\n"
                    "          \"p90\": " << v << ",\n"
                    "          \"p99\": " << v << "\n"
                    "        }" << (m_last ? "\n" : ",\n");
        };
        metric("ber", ber, false);
        metric("val", val, true);
        want << "      }\n"
                "    }" << (last ? "\n" : ",\n");
    };
    point("lo", "1", "0.25", "10", false);
    point("hi", "2", "0.5", "20", true);
    want << "  ],\n"
            "  \"rollups\": {\n"
            "    \"ber\": {\n"
            "      \"count\": 4,\n"
            "      \"mean\": 0.375,\n"
            "      \"stddev\": 0.1443375673,\n"
            "      \"min\": 0.25,\n"
            "      \"max\": 0.5,\n"
            "      \"p50\": 0.375,\n"
            "      \"p90\": 0.5,\n"
            "      \"p99\": 0.5\n"
            "    },\n"
            "    \"val\": {\n"
            "      \"count\": 4,\n"
            "      \"mean\": 15,\n"
            "      \"stddev\": 5.773502692,\n"
            "      \"min\": 10,\n"
            "      \"max\": 20,\n"
            "      \"p50\": 15,\n"
            "      \"p90\": 20,\n"
            "      \"p99\": 20\n"
            "    }\n"
            "  },\n"
            "  \"trials\": [\n";
    for (int i = 0; i < 4; ++i) {
        const char *val = i < 2 ? "10" : "20";
        const char *ber = i < 2 ? "0.25" : "0.5";
        want << "    {\n"
                "      \"point\": " << (i / 2) << ",\n"
                "      \"trial\": " << (i % 2) << ",\n"
                "      \"seed\": " << deriveTrialSeed(5, i) << ",\n"
                "      \"metrics\": {\n"
                "        \"ber\": " << ber << ",\n"
                "        \"val\": " << val << "\n"
                "      }\n"
                "    }" << (i == 3 ? "\n" : ",\n");
    }
    want << "  ]\n"
            "}\n";
    EXPECT_EQ(json, want.str());
}

TEST(Report, GoldenSeedsInJson)
{
    // The fixture's derived seeds, pinned as decimal literals: if the
    // seed schedule drifts, recorded sweeps stop being reproducible.
    std::string json = jsonReport(goldenResult());
    EXPECT_NE(json.find("\"seed\": 7134611160154358618"),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\": 13877614986023876344"),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\": 4292726422858613063"),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\": 1832488697174800709"),
              std::string::npos);
}

TEST(Report, GoldenCsv)
{
    EXPECT_EQ(csvReport(goldenResult()),
              "k,ber_mean,ber_stddev,val_mean,val_stddev\n"
              "lo,0.25,0,10,0\n"
              "hi,0.5,0,20,0\n");
}

TEST(Report, TextShapeAndCells)
{
    // Header with axis + metric columns, a rule, one row per point and
    // the seed note. Columns pad to the widest cell's byte length plus
    // two spaces, so the two-byte "±" widens its column by one.
    EXPECT_EQ(textReport(goldenResult()),
              "k   ber       val     \n"
              "--  --------  ------  \n"
              "lo  0.25 ±0  10 ±0  \n"
              "hi  0.5 ±0   20 ±0  \n"
              "(2 trials/point, base seed 5)\n");

    // Single-trial sweeps show the raw value, no ± and no seed note.
    RunnerOptions opts;
    opts.jobs = 1;
    opts.trials = 1;
    ScenarioSpec spec;
    spec.name = "single";
    spec.axes = {axis("x", {3.0})};
    spec.baseSeed = 5;
    spec.run = [](const TrialContext &ctx) {
        return MetricMap{{"m", ctx.point.get("x")}};
    };
    std::string single = textReport(SweepRunner(opts).run(spec));
    EXPECT_EQ(single.find("±"), std::string::npos);
    EXPECT_EQ(single.find("trials/point"), std::string::npos);
}

TEST(Report, MissingMetricRendersDash)
{
    // The second point never emits metric "b": its text cell and both
    // CSV cells show "-".
    ScenarioSpec spec;
    spec.name = "missing";
    spec.axes = {axisLabeledValues("k", {{"lo", 1.0}, {"hi", 2.0}})};
    spec.run = [](const TrialContext &ctx) {
        MetricMap m{{"a", 1.5}};
        if (ctx.point.label("k") == "lo")
            m["b"] = 2.0;
        return m;
    };
    RunnerOptions opts;
    opts.jobs = 1;
    opts.trials = 1;
    SweepResult result = SweepRunner(opts).run(spec);
    EXPECT_EQ(textReport(result), "k   a    b  \n"
                                  "--  ---  -  \n"
                                  "lo  1.5  2  \n"
                                  "hi  1.5  -  \n");
    EXPECT_EQ(csvReport(result), "k,a_mean,a_stddev,b_mean,b_stddev\n"
                                 "lo,1.5,0,2,0\n"
                                 "hi,1.5,0,-,-\n");
}

/** printf's rendering of @p v under @p fmt: the oracle for to_chars. */
std::string
printfDouble(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

/** Values where "%g"-style rounding and notation switch. */
std::vector<double>
formattingEdgeValues()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {0.0, -0.0, inf, -inf, nan, std::copysign(nan, -1.0),
            // Subnormal, smallest normal, largest finite.
            5e-324, DBL_MIN, DBL_MAX,
            // Where "%g" switches between fixed and exponent notation.
            1e-5, 1e-4, 0.000099999951, 999999.5, 9999995, 1e16,
            // Exact rounding ties, and a typical report value.
            123456.5, 1234565, -2816.9014084507};
}

/**
 * @p n seeded random bit patterns, then exact decimal rounding ties at
 * 6 and 10 significant digits.
 */
std::vector<double>
randomDoubles(std::size_t n)
{
    std::mt19937_64 rng(0xF0A7);
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        out.push_back(v);
    }
    // A p-digit integer plus one half, and a (p+1)-digit integer ending
    // in 5: both sit exactly halfway between two p-digit renderings.
    for (std::uint64_t lo : {100000ull, 1000000000ull})
        for (std::size_t i = 0; i < n / 40; ++i) {
            std::uint64_t k = lo + rng() % (9 * lo);
            out.push_back(static_cast<double>(k) + 0.5);
            out.push_back(static_cast<double>(10 * k + 5));
        }
    return out;
}

TEST(FormatValue, MatchesPrintfG)
{
    for (double v : formattingEdgeValues())
        EXPECT_EQ(formatValue(v), printfDouble("%g", v)) << "value " << v;
    for (double v : randomDoubles(100000))
        ASSERT_EQ(formatValue(v), printfDouble("%g", v))
            << "value " << printfDouble("%a", v);
}

TEST(JsonWriter, NumberMatchesPrintf10g)
{
    for (double v : formattingEdgeValues())
        EXPECT_EQ(JsonWriter::number(v),
                  std::isfinite(v) ? printfDouble("%.10g", v) : "null")
            << "value " << v;
    for (double v : randomDoubles(100000))
        ASSERT_EQ(JsonWriter::number(v),
                  std::isfinite(v) ? printfDouble("%.10g", v) : "null")
            << "value " << printfDouble("%a", v);
}

TEST(Report, CsvEscapesReservedCharacters)
{
    ScenarioSpec spec;
    spec.name = "escapes";
    spec.axes = {axisLabeledValues("who", {{"a,b \"c\"", 0.0}})};
    spec.run = [](const TrialContext &) {
        return MetricMap{{"x", 1.0}};
    };
    RunnerOptions opts;
    opts.jobs = 1;
    std::string csv = csvReport(SweepRunner(opts).run(spec));
    EXPECT_NE(csv.find("\"a,b \"\"c\"\"\""), std::string::npos);
}

TEST(Report, WriteReportsRoundTrip)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "ich_exp_report" /
                   "nested";
    SweepResult result = goldenResult();
    ReportPaths paths = writeReports(result, dir.string());

    std::ifstream jf(paths.json, std::ios::binary);
    std::stringstream jbuf;
    jbuf << jf.rdbuf();
    EXPECT_EQ(jbuf.str(), jsonReport(result));

    std::ifstream cf(paths.csv, std::ios::binary);
    std::stringstream cbuf;
    cbuf << cf.rdbuf();
    EXPECT_EQ(cbuf.str(), csvReport(result));

    fs::remove_all(fs::path(::testing::TempDir()) / "ich_exp_report");
}

TEST(Report, WriteReportsHonorsFormatSelection)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "ich_report_opts";
    fs::remove_all(dir);
    SweepResult result = goldenResult();

    ReportOptions opts;
    opts.json = false;
    ReportPaths paths = writeReports(result, dir.string(), opts);
    EXPECT_TRUE(paths.json.empty());
    EXPECT_FALSE(paths.csv.empty());
    EXPECT_FALSE(fs::exists(dir / "golden.json"));
    EXPECT_TRUE(fs::exists(dir / "golden.csv"));

    opts.json = true;
    opts.csv = false;
    paths = writeReports(result, dir.string(), opts);
    EXPECT_FALSE(paths.json.empty());
    EXPECT_TRUE(paths.csv.empty());
    std::ifstream jf(paths.json, std::ios::binary);
    std::stringstream jbuf;
    jbuf << jf.rdbuf();
    EXPECT_EQ(jbuf.str(), jsonReport(result));
    fs::remove_all(dir);
}

/** Captures the SweepMeta a streaming run publishes. */
class MetaCapture final : public ResultSink
{
  public:
    void beginSweep(const SweepMeta &meta) override { meta_ = meta; }
    void acceptPoint(std::size_t, const TrialRecord *,
                     std::size_t) override
    {
    }
    void endSweep() override {}
    SweepMeta meta_;
};

// The acceptance criterion of the streaming redesign: every report
// format rendered from the store-backed view must be byte-identical to
// the same report rendered from the materialized SweepResult.
TEST(Report, StoreBackedViewIsByteIdenticalToMaterialized)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "ich_store_view";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string store_path = (dir / "golden.colstore").string();

    ScenarioSpec spec;
    spec.name = "golden";
    spec.description = "reporter fixture";
    spec.axes = {axisLabeledValues("k", {{"lo", 1.0}, {"hi", 2.0}})};
    spec.trials = 2;
    spec.baseSeed = 5;
    spec.run = [](const TrialContext &ctx) {
        MetricMap m;
        m["val"] = ctx.point.get("k") * 10.0;
        m["ber"] = ctx.point.get("k") * 0.25;
        return m;
    };

    MetaCapture meta;
    MaterializeSink mat;
    StreamingAggregator agg;
    ColumnStoreWriter store(store_path);
    TeeSink tee({&meta, &mat, &agg, &store});
    RunnerOptions opts;
    opts.jobs = 2; // completion order must not matter
    SweepRunner(opts).runStreaming(spec, tee);

    SweepResult result = mat.take();
    result.aggregates = aggregate(result.points, result.trials);

    ColumnStoreReader reader(store_path);
    StoreSweepView view{meta.meta_, agg, reader};

    EXPECT_EQ(textReport(view), textReport(result));
    EXPECT_EQ(jsonReport(view), jsonReport(result));
    EXPECT_EQ(csvReport(view), csvReport(result));

    // writeReports over the view produces byte-identical files too.
    ReportPaths from_view =
        writeReports(view, (dir / "view").string());
    ReportPaths from_result =
        writeReports(result, (dir / "mat").string());
    for (auto pair : {std::make_pair(from_view.json, from_result.json),
                      std::make_pair(from_view.csv, from_result.csv)}) {
        std::ifstream a(pair.first, std::ios::binary);
        std::ifstream b(pair.second, std::ios::binary);
        std::stringstream abuf, bbuf;
        abuf << a.rdbuf();
        bbuf << b.rdbuf();
        EXPECT_EQ(abuf.str(), bbuf.str());
        EXPECT_FALSE(abuf.str().empty());
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace exp
} // namespace ich
