#include "harness/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>

#include "sim/bytes.hh"

namespace gvc
{

namespace
{

/**
 * Strict base-10 uint64 parse shared by parseValue() and
 * parseShardSpec(): digits only, no sign, no trailing characters.
 */
bool
tryParseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

/** The export labels of `--designs all`, in MmuDesign order.  Every
 *  all-design export stamps them, so they never change. */
constexpr const char *kAllDesignLabels[] = {
    "ideal",   "baseline512",   "baseline16k", "baseline_large_tlb",
    "vc",      "vc_opt",        "l1vc32",      "l1vc128",
    "base2mb", "basecoalesced", "basevictima"};
static_assert(std::size(kAllDesignLabels) == std::size(kDesignRows),
              "--designs all must name every design");

constexpr const char *kFillPolicies = "lru | bypass-dead | bypass-trained";
constexpr const char *kReplacements = "lru | srrip | brrip | drrip";

/** Lowercase with '-'/'_' removed: the form DesignRow spellings use. */
std::string
canonicalDesignSpelling(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == '-' || c == '_')
            continue;
        out += char(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

/** Every design's first spelling, for help lines and errors. */
std::string
designChoices()
{
    std::string out;
    for (const DesignRow &row : kDesignRows)
        out += (out.empty() ? "" : " | ") + std::string(row.spellings[0]);
    return out;
}

/** Append @p column and @p help, the help at column 26 and wrapped
 *  at 79. */
void
appendHelpRow(std::string &out, std::string line, const std::string &help)
{
    constexpr std::size_t kIndent = 26, kWidth = 79;
    if (line.size() + 2 > kIndent) {
        out += line + "\n";
        line.clear();
    }
    std::istringstream words(help);
    for (std::string word; words >> word;) {
        if (line.size() > kIndent && line.size() + 1 + word.size() > kWidth) {
            out += line + "\n";
            line.clear();
        }
        line += line.size() < kIndent
                    ? std::string(kIndent - line.size(), ' ')
                    : " ";
        line += word;
    }
    out += line + "\n";
}

CliError
expandWorkloads(const char *flag, const std::string &spec,
                std::vector<std::string> &out)
{
    out = spec == "all"       ? allWorkloadNames()
          : spec == "high-bw" ? highBandwidthWorkloadNames()
                              : splitList(spec);
    return out.empty() ? std::string(flag) + ": no workloads selected"
                       : CliError();
}

} // namespace

CliError
parseValue(const char *flag, const std::string &text, std::uint64_t &out)
{
    return tryParseU64(text, out)
               ? CliError()
               : std::string(flag) +
                     ": expected a non-negative integer, got '" + text +
                     "'";
}

CliError
parseValue(const char *flag, const std::string &text, unsigned &out)
{
    std::uint64_t v = 0;
    CliError err = parseValue(flag, text, v);
    if (err.empty() && v > 0xffffffffull)
        err = std::string(flag) + ": value '" + text + "' is out of range";
    if (err.empty())
        out = unsigned(v);
    return err;
}

CliError
parseValue(const char *flag, const std::string &text, double &out)
{
    const char *s = text.c_str();
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(*s)) ||
        end == s || *end != '\0' || !std::isfinite(v))
        return std::string(flag) + ": expected a number, got '" + text +
               "'";
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        return std::string(flag) + ": value '" + text + "' is out of range";
    out = v;
    return {};
}

CliError
parseValue(const char *, const std::string &text, std::string &out)
{
    out = text;
    return {};
}

Apply
storeConstant(bool &target, bool value)
{
    return [&target, value](const char *, const std::string &) {
        target = value;
        return CliError();
    };
}

std::vector<std::string>
splitList(const std::string &spec)
{
    std::vector<std::string> out;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

SocConfig
resolveSoc(MmuDesign design, const SocOverrides &overrides)
{
    SocConfig soc = configFor(design);
    for (const auto &apply : overrides)
        apply(soc);
    return soc;
}

Apply
storeSoc(SocOverrides &soc, Apply (*row)(SocConfig &))
{
    return [&soc, row](const char *flag, const std::string &value) {
        SocConfig scratch;
        CliError err = row(scratch)(flag, value);
        if (err.empty()) {
            const std::string name = flag;
            soc.push_back([row, name, value](SocConfig &c) {
                row(c)(name.c_str(), value);
            });
        }
        return err;
    };
}

RunConfig
runConfigFor(MmuDesign design, const WorkloadParams &params,
             const SocOverrides &overrides)
{
    RunConfig cfg;
    cfg.design = design;
    cfg.workload = params;
    cfg.soc = resolveSoc(design, overrides);
    cfg.raw_soc = true; // cfg.soc already holds the preset
    return cfg;
}

bool
tryParseDesign(const std::string &name, MmuDesign &out)
{
    const std::string canon = canonicalDesignSpelling(name);
    for (const DesignRow &row : kDesignRows) {
        for (const char *spelling : row.spellings) {
            if (spelling && canon == spelling) {
                out = row.design;
                return true;
            }
        }
    }
    return false;
}

CliError
expandDesigns(const char *flag, const std::string &spec, GridAxes &out)
{
    const std::vector<std::string> labels =
        spec == "all" ? std::vector<std::string>(std::begin(kAllDesignLabels),
                                                 std::end(kAllDesignLabels))
                      : splitList(spec);
    if (labels.empty())
        return std::string(flag) + ": no designs selected";
    std::vector<MmuDesign> designs(labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i)
        if (!tryParseDesign(labels[i], designs[i]))
            return std::string(flag) + ": unknown design '" + labels[i] +
                   "' (" + designChoices() + ")";
    out.designs = std::move(designs);
    out.design_labels = labels;
    return {};
}

OptionTable
workloadParamOptions(WorkloadParams &params)
{
    std::ostringstream scale;
    scale << "workload scale factor (default " << params.scale << ")";
    return {{"--scale", nullptr, "F", scale.str(), store(params.scale)},
            {"--seed", nullptr, "N", "workload RNG seed", store(params.seed)}};
}

Option
workloadOption(std::string &workload)
{
    return {"--workload", "-w", "NAME", "workload (see gvc_run --list)",
            store(workload)};
}

Option
designOption(MmuDesign &design)
{
    return {"--design", "-d", "NAME",
            std::string("design (default ") +
                designRow(design).spellings[0] + "): " + designChoices(),
            storeNamed(design, tryParseDesign, designChoices())};
}

Option
workloadsOption(GridAxes &grid, const char *dflt)
{
    expandWorkloads("--workloads", dflt, grid.workloads);
    return {"--workloads", "-w", "LIST",
            std::string("comma-separated workloads, or 'all' / 'high-bw' "
                        "(default: ") + dflt + ")",
            [&grid](const char *flag, const std::string &value) {
                return expandWorkloads(flag, value, grid.workloads);
            }};
}

Option
designsOption(GridAxes &grid, const char *dflt)
{
    expandDesigns("--designs", dflt, grid);
    return {"--designs", "-d", "LIST",
            std::string("comma-separated designs, or 'all' (default: ") +
                dflt + "): " + designChoices(),
            [&grid](const char *flag, const std::string &value) {
                return expandDesigns(flag, value, grid);
            }};
}

Option
jobsOption(GridAxes &grid)
{
    return {"--jobs", "-j", "N",
            "worker threads (default: GVC_JOBS or hardware concurrency)",
            store(grid.jobs)};
}

Option
jsonOption(std::string &path)
{
    return {"--json", nullptr, "PATH", "write results as JSON ('-' = stdout)",
            store(path)};
}

Option
quietOption(bool &quiet)
{
    return {"--quiet", "-q", nullptr,
            "no progress lines (grids) or report (replay)",
            storeConstant(quiet)};
}

OptionTable
outputOptions(OutputOptions &out)
{
    return {jsonOption(out.json_path),
            {"--csv", nullptr, "PATH", "write CSV results ('-' = stdout)",
             store(out.csv_path)},
            quietOption(out.quiet),
            {"--no-table", nullptr, nullptr,
             "skip the summary table on stdout",
             storeConstant(out.print_table, false)}};
}

OptionTable
socOptions(SocOverrides &soc)
{
    return {
        {"--percu-tlb", nullptr, "N", "per-CU TLB entries",
         storeSoc(soc,
                  [](SocConfig &c) { return store(c.percu_tlb_entries); })},
        {"--iommu-tlb", nullptr, "N", "shared IOMMU TLB entries",
         storeSoc(soc,
                  [](SocConfig &c) { return store(c.iommu.tlb_entries); })},
        {"--iommu-bw", nullptr, "F", "shared TLB accesses/cycle",
         storeSoc(soc, [](SocConfig &c) {
             return store(c.iommu.accesses_per_cycle);
         })},
        {"--fbt-entries", nullptr, "N", "FBT entries",
         storeSoc(soc, [](SocConfig &c) { return store(c.fbt.entries); })},
        {"--tlb-fill-policy", nullptr, "P",
         std::string("per-CU TLB fill policy: ") + kFillPolicies +
             " (bypass-dead: static next-line; bypass-trained: trained "
             "predictor + dead-first victim selection)",
         storeSoc(soc, [](SocConfig &c) {
             return storeNamed(c.percu_tlb_fill_policy, tlbFillPolicyFromName,
                               kFillPolicies);
         })},
        {"--iommu-tlb-fill-policy", nullptr, "P",
         std::string("shared IOMMU TLB fill policy: ") + kFillPolicies,
         storeSoc(soc, [](SocConfig &c) {
             return storeNamed(c.iommu_tlb_fill_policy, tlbFillPolicyFromName,
                               kFillPolicies);
         })},
        {"--tlb-replacement", nullptr, "R",
         std::string("TLB replacement, both levels: ") + kReplacements,
         storeSoc(soc, [](SocConfig &c) {
             return storeNamed(c.tlb_replacement, tlbReplacementFromName,
                               kReplacements);
         })},
        {"--cus", nullptr, "N", "number of compute units",
         storeSoc(soc, [](SocConfig &c) { return store(c.gpu.num_cus); })},
    };
}

OptionTable
concat(std::initializer_list<OptionTable> groups)
{
    OptionTable out;
    for (const OptionTable &g : groups)
        out.insert(out.end(), g.begin(), g.end());
    return out;
}

int
usageError(const char *command, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", command, message.c_str());
    return 2;
}

std::optional<int>
parseCommandLine(const char *command, const char *synopsis,
                 const OptionTable &table, int argc, char **argv, int first,
                 std::vector<std::string> *positional)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::string help =
                std::string("usage: ") + command + " " + synopsis + "\n";
            for (const Option &row : table)
                appendHelpRow(help,
                              (row.alias ? std::string("  ") + row.alias + ", "
                                         : std::string("      ")) +
                                  row.name +
                                  (row.metavar ? std::string(" ") + row.metavar
                                               : std::string()),
                              row.help);
            appendHelpRow(help, "  -h, --help", "this text");
            std::fputs(help.c_str(), stdout);
            return 0;
        }
        const Option *row = nullptr;
        for (const Option &r : table)
            if (arg == r.name || (r.alias && arg == r.alias))
                row = &r;
        if (!row && arg.size() > 1 && arg[0] == '-')
            return usageError(command,
                              "unknown option '" + arg + "' (try --help)");
        if (!row && !positional)
            return usageError(command, "unexpected argument '" + arg +
                                           "' (try --help)");
        if (!row) {
            positional->push_back(arg);
            continue;
        }
        if (row->metavar && i + 1 >= argc)
            return usageError(command, std::string(row->name) +
                                           ": missing value " + row->metavar);
        const CliError err =
            row->apply(row->name, row->metavar ? argv[++i] : "");
        if (!err.empty())
            return usageError(command, err);
    }
    return std::nullopt;
}

int
dispatchSubcommand(const char *tool, const std::vector<Subcommand> &commands,
                   int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    for (const Subcommand &c : commands)
        if (cmd == c.name)
            return c.run(argc, argv);
    if (cmd.empty())
        return usageError(tool, "missing command (try --help)");
    if (cmd != "-h" && cmd != "--help")
        return usageError(tool,
                          "unknown command '" + cmd + "' (try --help)");
    std::string help =
        std::string("usage: ") + tool + " <command> [options]\ncommands:\n";
    for (const Subcommand &c : commands)
        appendHelpRow(help, std::string("  ") + c.name, c.summary);
    help += std::string("run '") + tool +
            " <command> --help' for a command's options\n";
    appendHelpRow(help, "  -h, --help", "this text");
    std::fputs(help.c_str(), stdout);
    return 0;
}

CliError
parseShardSpec(const std::string &text, ShardSpec &out)
{
    const std::size_t slash = text.find('/');
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (slash == std::string::npos ||
        !tryParseU64(text.substr(0, slash), index) ||
        !tryParseU64(text.substr(slash + 1), count))
        return "expected I/N (e.g. 0/4), got '" + text + "'";
    if (count == 0 || count > 0xffffffffull)
        return "shard count must be between 1 and 2^32-1, got '" + text +
               "'";
    if (index >= count)
        return "shard index " + std::to_string(index) +
               " out of range for /" + std::to_string(count) +
               " (valid: 0.." + std::to_string(count - 1) + ")";
    out = {unsigned(index), unsigned(count)};
    return {};
}

std::vector<unsigned>
assignShards(const GridAxes &grid, const CostModel &model, unsigned count,
             bool lpt, std::vector<double> *costs, std::vector<double> *loads)
{
    std::vector<double> cell_costs;
    for (const std::string &w : grid.workloads)
        for (const MmuDesign d : grid.designs)
            cell_costs.push_back(model.costFor(w, designName(d)));
    std::vector<double> shard_loads(count, 0.0);
    std::vector<unsigned> assignment(cell_costs.size());
    if (lpt)
        assignment = planShards(cell_costs, count, &shard_loads);
    for (std::size_t i = 0; !lpt && i < cell_costs.size(); ++i) {
        assignment[i] = unsigned(i % count);
        shard_loads[assignment[i]] += cell_costs[i];
    }
    if (costs)
        *costs = std::move(cell_costs);
    if (loads)
        *loads = std::move(shard_loads);
    return assignment;
}

bool
writeOutput(const char *tool, const std::string &path,
            const std::string &content)
{
    const bool to_stdout = path == "-";
    errno = 0;
    std::FILE *f = to_stdout ? stdout : std::fopen(path.c_str(), "wb");
    bool ok = f &&
              std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size() &&
              std::fflush(f) == 0;
    int error = errno;
    if (f && !to_stdout && std::fclose(f) != 0 && ok) {
        ok = false;
        error = errno;
    }
    if (!ok) {
        std::fprintf(stderr, "%s: cannot write '%s': %s\n", tool, path.c_str(),
                     std::strerror(error));
        return false;
    }
    if (!to_stdout)
        std::fprintf(stderr, "[%s] wrote %s (%zu bytes)\n", tool, path.c_str(),
                     content.size());
    return true;
}

bool
writeResults(const char *tool, const OutputOptions &out,
             const ExportMeta &meta, const std::vector<ResultRecord> &records)
{
    return (out.json_path.empty() ||
            writeOutput(tool, out.json_path,
                        resultsToJson(meta, records).dump(2) + "\n")) &&
           (out.csv_path.empty() ||
            writeOutput(tool, out.csv_path, resultsToCsv(records)));
}

bool
readInput(const char *tool, const std::string &path, std::string &out)
{
    std::string err;
    if (readFileBytes(path, out, &err))
        return true;
    std::fprintf(stderr, "%s: %s\n", tool, err.c_str());
    return false;
}

} // namespace gvc
