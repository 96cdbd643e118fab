#include "harness/plan.hh"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "harness/bench.hh"
#include "harness/journal.hh"
#include "harness/results_io.hh"
#include "mmu/designs.hh"
#include "sim/bytes.hh"

namespace gvc
{

void
CostModel::addSample(const std::string &workload, const std::string &design,
                     double cost)
{
    auto &cell = cells_[{workload, design}];
    cell.sum += cost;
    ++cell.count;
    auto &wl = workloads_[workload];
    wl.sum += cost;
    ++wl.count;
    overall_.sum += cost;
    ++overall_.count;
}

bool
CostModel::load(const std::string &path, std::string *err)
{
    *this = CostModel{};
    std::string data, rerr;
    if (!readFileBytes(path, data, &rerr)) {
        if (err)
            *err = "cost model: " + rerr;
        return false;
    }

    if (data.size() >= 4 &&
        std::memcmp(data.data(), kJournalMagic, 4) == 0) {
        ExportMeta meta;
        std::vector<JournalEntry> entries;
        if (!parseJournal(reinterpret_cast<const std::uint8_t *>(data.data()),
                          data.size(), meta, entries, err))
            return false;
        for (const auto &e : entries)
            addSample(e.record.result.workload,
                      designName(e.record.result.design),
                      double(e.record.result.exec_ticks));
    } else {
        std::string perr;
        const Json doc = Json::parse(data, &perr);
        if (doc.isNull()) {
            if (err)
                *err = "cost model: '" + path + "' is neither a .gvcj "
                       "journal nor JSON: " + perr;
            return false;
        }
        if (doc.isObject() && doc.find("bench_schema_version")) {
            BenchReport report;
            if (!benchReportFromJson(doc, report, err))
                return false;
            for (const auto &m : report.configs)
                addSample(m.cfg.workload, m.cfg.design,
                          double(m.counters.exec_ticks));
        } else if (doc.isObject() && doc.find("schema_version")) {
            ExportMeta meta;
            std::vector<ResultRecord> records;
            if (!resultsFromJson(doc, meta, records, err))
                return false;
            for (const auto &rec : records)
                addSample(rec.result.workload,
                          designName(rec.result.design),
                          double(rec.result.exec_ticks));
        } else {
            if (err)
                *err = "cost model: '" + path + "' is not a recognized "
                       "measurement file (expected a .gvcj journal, a "
                       "gvc_bench report, or a sweep results document)";
            return false;
        }
    }
    digest_ = fnv1a(data.data(), data.size());
    source_ = path;
    return true;
}

double
CostModel::costFor(const std::string &workload,
                   const std::string &design) const
{
    const auto cell = cells_.find({workload, design});
    if (cell != cells_.end() && cell->second.count)
        return cell->second.mean();
    const auto wl = workloads_.find(workload);
    if (wl != workloads_.end() && wl->second.count)
        return wl->second.mean();
    if (overall_.count)
        return overall_.mean();
    return 1.0;
}

std::vector<unsigned>
planShards(const std::vector<double> &costs, unsigned shard_count,
           std::vector<double> *loads)
{
    if (shard_count == 0)
        shard_count = 1;
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return costs[a] > costs[b];
                     });
    std::vector<double> load(shard_count, 0.0);
    std::vector<unsigned> assignment(costs.size(), 0);
    for (const std::size_t cell : order) {
        unsigned best = 0;
        for (unsigned s = 1; s < shard_count; ++s) {
            if (load[s] < load[best])
                best = s;
        }
        assignment[cell] = best;
        load[best] += costs[cell];
    }
    if (loads)
        *loads = std::move(load);
    return assignment;
}

} // namespace gvc
