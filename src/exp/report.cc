#include "exp/report.hh"

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <stdexcept>

#include "common/table.hh"
#include "exp/colstore.hh"
#include "exp/json.hh"

namespace ich
{
namespace exp
{

namespace
{

std::string
cell(const MetricSummary &m)
{
    if (m.count <= 1)
        return formatValue(m.mean);
    return formatValue(m.mean) + " ±" + formatValue(m.stddev);
}

void
writeSummary(JsonWriter &w, const MetricSummary &m)
{
    w.beginObject();
    w.key("count").value(static_cast<std::uint64_t>(m.count));
    w.key("mean").value(m.mean);
    w.key("stddev").value(m.stddev);
    w.key("min").value(m.min);
    w.key("max").value(m.max);
    w.key("p50").value(m.p50);
    w.key("p90").value(m.p90);
    w.key("p99").value(m.p99);
    w.endObject();
}

/**
 * Append @p s to @p out as one CSV field, quoted if it holds a comma, a
 * quote or a newline.
 */
void
appendCsvField(std::string &out, const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

/**
 * The renderers' common denominator: both front ends (materialized
 * SweepResult, store-backed StoreSweepView) reduce to this, so the
 * bytes they produce cannot drift apart. forEachTrial streams every
 * trial record in global-trial-index order; for the store view that is
 * one pass over the column store (ascending points == global order).
 */
struct View {
    const std::string &scenario;
    const std::string &description;
    std::uint64_t baseSeed;
    int trialsPerPoint;
    const std::vector<ParamPoint> &points;
    const std::vector<PointAggregate> &aggregates;
    std::function<void(const std::function<void(const TrialRecord &)> &)>
        forEachTrial;
};

View
viewOf(const SweepResult &r)
{
    return View{r.scenario,
                r.description,
                r.baseSeed,
                r.trialsPerPoint,
                r.points,
                r.aggregates,
                [&r](const std::function<void(const TrialRecord &)> &fn) {
                    for (const auto &t : r.trials)
                        fn(t);
                }};
}

View
viewOf(const StoreSweepView &v)
{
    const ColumnStoreReader &store = v.store;
    return View{v.meta.scenario,
                v.meta.description,
                v.meta.baseSeed,
                v.meta.trialsPerPoint,
                v.meta.points,
                v.agg.aggregates(),
                [&store](
                    const std::function<void(const TrialRecord &)> &fn) {
                    store.forEachPoint(
                        [&fn](std::size_t,
                              const std::vector<TrialRecord> &recs) {
                            for (const auto &t : recs)
                                fn(t);
                        });
                }};
}

std::vector<std::string>
viewMetricNames(const View &v)
{
    std::set<std::string> names;
    for (const auto &pa : v.aggregates)
        for (const auto &kv : pa.metrics)
            names.insert(kv.first);
    return std::vector<std::string>(names.begin(), names.end());
}

std::string
textCore(const View &v)
{
    std::vector<std::string> metrics = viewMetricNames(v);
    std::vector<std::string> header;
    std::vector<std::string> axes;
    if (!v.points.empty())
        for (const auto &e : v.points.front().entries())
            axes.push_back(e.name);
    header.insert(header.end(), axes.begin(), axes.end());
    header.insert(header.end(), metrics.begin(), metrics.end());
    if (header.empty())
        return "(empty sweep)\n";

    Table t(header);
    for (const auto &pa : v.aggregates) {
        std::vector<std::string> row;
        row.reserve(header.size());
        for (const auto &a : axes)
            row.push_back(pa.point.label(a));
        for (const auto &m : metrics) {
            auto it = pa.metrics.find(m);
            row.push_back(it == pa.metrics.end() ? "-" : cell(it->second));
        }
        t.addRow(std::move(row));
    }
    std::string out = t.toString();
    if (v.trialsPerPoint > 1) {
        out += "(" + std::to_string(v.trialsPerPoint) +
               " trials/point, base seed " + std::to_string(v.baseSeed) +
               ")\n";
    }
    return out;
}

std::string
jsonCore(const View &v)
{
    JsonWriter w;
    w.beginObject();
    w.key("scenario").value(v.scenario);
    w.key("description").value(v.description);
    w.key("base_seed").value(v.baseSeed);
    w.key("trials_per_point").value(v.trialsPerPoint);

    w.key("points").beginArray();
    for (const auto &pa : v.aggregates) {
        w.beginObject();
        w.key("params").beginObject();
        for (const auto &e : pa.point.entries()) {
            w.key(e.name).beginObject();
            w.key("value").value(e.value.value);
            w.key("label").value(e.value.label);
            w.endObject();
        }
        w.endObject();
        w.key("metrics").beginObject();
        for (const auto &kv : pa.metrics) {
            w.key(kv.first);
            writeSummary(w, kv.second);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    // Whole-sweep rollups: samples gathered per metric in global trial
    // order — the exact order rollup() uses, so the store-backed path
    // emits the same bits. (Quantiles need every sample, so this is the
    // one reporter stage that is O(trials) doubles, not O(points).)
    std::vector<std::string> names = viewMetricNames(v);
    std::map<std::string, std::vector<double>> samples;
    for (const auto &name : names)
        samples[name]; // fixed key set: only metrics the sweep emitted
    v.forEachTrial([&samples](const TrialRecord &t) {
        for (auto &kv : samples) {
            auto it = t.metrics.find(kv.first);
            if (it != t.metrics.end())
                kv.second.push_back(it->second);
        }
    });
    w.key("rollups").beginObject();
    for (const auto &name : names) {
        w.key(name);
        writeSummary(w, MetricSummary::fromSamples(samples[name]));
    }
    w.endObject();

    w.key("trials").beginArray();
    v.forEachTrial([&w](const TrialRecord &t) {
        w.beginObject();
        w.key("point").value(static_cast<std::uint64_t>(t.pointIndex));
        w.key("trial").value(t.trial);
        w.key("seed").value(t.seed);
        w.key("metrics").beginObject();
        for (const auto &kv : t.metrics)
            w.key(kv.first).value(kv.second);
        w.endObject();
        w.endObject();
    });
    w.endArray();

    w.endObject();
    return w.str();
}

std::string
csvCore(const View &v)
{
    std::vector<std::string> metrics = viewMetricNames(v);
    std::vector<std::string> axes;
    if (!v.points.empty())
        for (const auto &e : v.points.front().entries())
            axes.push_back(e.name);

    std::string out;
    const char *sep = ""; // "," once the line has a field
    for (const auto &a : axes) {
        out += sep;
        appendCsvField(out, a);
        sep = ",";
    }
    for (const auto &m : metrics) {
        out += sep;
        appendCsvField(out, m + "_mean");
        out += ',';
        appendCsvField(out, m + "_stddev");
        sep = ",";
    }
    out += '\n';

    for (const auto &pa : v.aggregates) {
        sep = "";
        for (const auto &a : axes) {
            out += sep;
            appendCsvField(out, pa.point.label(a));
            sep = ",";
        }
        for (const auto &m : metrics) {
            out += sep;
            sep = ",";
            auto it = pa.metrics.find(m);
            if (it == pa.metrics.end()) {
                out += "-,-";
                continue;
            }
            out += formatValue(it->second.mean);
            out += ',';
            out += formatValue(it->second.stddev);
        }
        out += '\n';
    }
    return out;
}

ReportPaths
writeCore(const View &v, const std::string &out_dir,
          const ReportOptions &opts)
{
    namespace fs = std::filesystem;
    fs::path dir(out_dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("writeReports: cannot create '" + out_dir +
                                 "': " + ec.message());

    auto write = [](const std::string &path, const std::string &content) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        if (!f)
            throw std::runtime_error("writeReports: cannot open '" + path +
                                     "'");
        f << content;
        if (!f.flush())
            throw std::runtime_error("writeReports: write failed for '" +
                                     path + "'");
    };

    ReportPaths paths;
    if (opts.json) {
        paths.json = (dir / (v.scenario + ".json")).string();
        write(paths.json, jsonCore(v));
    }
    if (opts.csv) {
        paths.csv = (dir / (v.scenario + ".csv")).string();
        write(paths.csv, csvCore(v));
    }
    return paths;
}

} // namespace

std::string
textReport(const SweepResult &result)
{
    return textCore(viewOf(result));
}

std::string
textReport(const StoreSweepView &view)
{
    return textCore(viewOf(view));
}

std::string
jsonReport(const SweepResult &result)
{
    return jsonCore(viewOf(result));
}

std::string
jsonReport(const StoreSweepView &view)
{
    return jsonCore(viewOf(view));
}

std::string
csvReport(const SweepResult &result)
{
    return csvCore(viewOf(result));
}

std::string
csvReport(const StoreSweepView &view)
{
    return csvCore(viewOf(view));
}

ReportPaths
writeReports(const SweepResult &result, const std::string &out_dir,
             const ReportOptions &opts)
{
    return writeCore(viewOf(result), out_dir, opts);
}

ReportPaths
writeReports(const StoreSweepView &view, const std::string &out_dir,
             const ReportOptions &opts)
{
    return writeCore(viewOf(view), out_dir, opts);
}

} // namespace exp
} // namespace ich
