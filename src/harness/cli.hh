/**
 * @file
 * The gvc_* tools' command line, spelled once.
 *
 * Every flag is one Option row: long name, optional short alias,
 * metavar, one help line, and an apply function that returns an error
 * instead of exiting.  Rows several tools share come from the builders
 * below; tool-only rows stay in the tool.  One parse loop,
 * parseCommandLine(), handles values, missing values, unknown options
 * and -h/--help, and generates the help from the rows.  A usage error
 * is one stderr line naming the flag and exit status 2.
 *
 * A run's SoC is the design's preset, then the user's SoC flags in
 * argv order: SoC rows append to a SocOverrides list, and
 * resolveSoc(design, overrides) is configFor(design) followed by each
 * override.  Design rows only assign constants, so a SoC flag always
 * wins over the preset and every field no flag sets is the design's.
 */

#ifndef GVC_HARNESS_CLI_HH
#define GVC_HARNESS_CLI_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/plan.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"

namespace gvc
{

/** A usage error message; empty when the value was accepted. */
using CliError = std::string;

/** What a row does with its value ("" for a switch); @p flag is the
 *  row's long name, for messages. */
using Apply =
    std::function<CliError(const char *flag, const std::string &value)>;

/** One command-line option. */
struct Option
{
    const char *name;    ///< Long spelling: "--scale".
    const char *alias;   ///< Short spelling ("-w"), or nullptr.
    const char *metavar; ///< Value placeholder; nullptr for a switch.
    std::string help;    ///< One help line.
    Apply apply;
};

using OptionTable = std::vector<Option>;

/**
 * Checked parsing of a non-negative base-10 integer (no sign, no
 * trailing characters, no overflow) or a finite double.  A bad value
 * leaves @p out alone and returns an error naming @p flag.
 */
CliError parseValue(const char *flag, const std::string &text,
                    std::uint64_t &out);
CliError parseValue(const char *flag, const std::string &text,
                    unsigned &out);
CliError parseValue(const char *flag, const std::string &text,
                    double &out);
CliError parseValue(const char *flag, const std::string &text,
                    std::string &out);

/** An Apply that parses the value into @p target. */
template <typename T>
Apply
store(T &target)
{
    return [&target](const char *flag, const std::string &value) {
        return parseValue(flag, value, target);
    };
}

/** An Apply for a switch: sets @p target to @p value. */
Apply storeConstant(bool &target, bool value = true);

/** An Apply that reads a name through one of the `*FromName`
 *  functions; the error lists @p choices. */
template <typename T>
Apply
storeNamed(T &target, bool (*fromName)(const std::string &, T &),
           std::string choices)
{
    return [&target, fromName, choices](const char *flag,
                                        const std::string &value) {
        return fromName(value, target)
                   ? CliError()
                   : std::string(flag) + ": unknown value '" + value +
                         "' (" + choices + ")";
    };
}

/** Comma-separated items, empty items dropped. */
std::vector<std::string> splitList(const std::string &spec);

/** One SoC flag's effect; a tool keeps them in argv order. */
using SocOverrides = std::vector<std::function<void(SocConfig &)>>;

/** configFor(@p design), then each of @p overrides in order. */
SocConfig resolveSoc(MmuDesign design, const SocOverrides &overrides);

/** A run of @p design whose SoC is resolveSoc(design, overrides). */
RunConfig runConfigFor(MmuDesign design, const WorkloadParams &params,
                       const SocOverrides &overrides);

/**
 * An Apply for a SoC flag.  @p row gives the Apply that stores the
 * value into a SocConfig's field; the value is checked now, against a
 * scratch config, and the override appended to @p soc replays it.
 */
Apply storeSoc(SocOverrides &soc, Apply (*row)(SocConfig &));

/** Case/'-'/'_'-insensitive design lookup ("vc-opt" == "VcOpt");
 *  false when @p name matches no design. */
bool tryParseDesign(const std::string &name, MmuDesign &out);

/** The workload and design axes of a grid, as -w/-d/-j set them. */
struct GridAxes
{
    std::vector<std::string> workloads;
    std::vector<MmuDesign> designs;
    /** The -d spellings as given: the export's design axis. */
    std::vector<std::string> design_labels;
    unsigned jobs = 0; ///< 0 = defaultJobs().
};

/** Expand a -d value, "all" (every design under its fixed export
 *  label) or a comma-separated list, into @p out. */
CliError expandDesigns(const char *flag, const std::string &spec,
                       GridAxes &out);

/** Where a grid tool's results go and how much it prints. */
struct OutputOptions
{
    std::string json_path;
    std::string csv_path;
    bool quiet = false;
    bool print_table = true; ///< Cleared by --no-table.
};

// Shared rows.  Help shows the bound value as the default; the grid
// rows store their default, @p dflt, into @p grid up front.
OptionTable workloadParamOptions(WorkloadParams &params); // --scale --seed
Option workloadOption(std::string &workload);             // -w/--workload
Option designOption(MmuDesign &design);                   // -d/--design
Option workloadsOption(GridAxes &grid, const char *dflt); // -w/--workloads
Option designsOption(GridAxes &grid, const char *dflt);   // -d/--designs
Option jobsOption(GridAxes &grid);                        // -j/--jobs
Option jsonOption(std::string &path);                     // --json
Option quietOption(bool &quiet);                          // -q/--quiet
/** --json, --csv, -q/--quiet and --no-table. */
OptionTable outputOptions(OutputOptions &out);
/** The SoC flags gvc_run and gvc_sweep share: --percu-tlb,
 *  --iommu-tlb, --iommu-bw, --fbt-entries, --tlb-fill-policy,
 *  --iommu-tlb-fill-policy, --tlb-replacement and --cus. */
OptionTable socOptions(SocOverrides &soc);

/** The rows of every group, in order. */
OptionTable concat(std::initializer_list<OptionTable> groups);

/**
 * Parse `argv[first..argc)` against @p table.  @p command names the
 * tool (and subcommand); @p synopsis follows it on the usage line.
 * Non-option arguments go to @p positional, or are a usage error when
 * it is null.  Returns nullopt when the tool should run, else its exit
 * status: 0 after printing the help, 2 after a usage error.
 */
std::optional<int>
parseCommandLine(const char *command, const char *synopsis,
                 const OptionTable &table, int argc, char **argv,
                 int first = 1,
                 std::vector<std::string> *positional = nullptr);

/** Print "<command>: <message>" to stderr; returns exit status 2. */
int usageError(const char *command, const std::string &message);

/** One subcommand of a multi-command tool. */
struct Subcommand
{
    const char *name;
    const char *summary;
    int (*run)(int argc, char **argv); ///< Gets the tool's argv.
};

/** Run the subcommand argv[1] names, or list them for -h/--help. */
int dispatchSubcommand(const char *tool,
                       const std::vector<Subcommand> &commands, int argc,
                       char **argv);

/** One `--shard I/N` grid position; the default {0, 1} is "all cells". */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;
};

/** Parse "I/N" with 0 <= I < N (e.g. "0/4" ... "3/4"). */
CliError parseShardSpec(const std::string &text, ShardSpec &out);

/**
 * Each cell's shard, in canonical (workload-major, design-minor) grid
 * order: LPT packing of @p model's per-cell costs when @p lpt, else
 * index mod @p count.  gvc_sweep runs and gvc_plan previews this.
 * @p costs and @p loads, when non-null, get the per-cell costs and
 * per-shard totals.
 */
std::vector<unsigned> assignShards(const GridAxes &grid,
                                   const CostModel &model, unsigned count,
                                   bool lpt,
                                   std::vector<double> *costs = nullptr,
                                   std::vector<double> *loads = nullptr);

/**
 * Write @p content to @p path, or stdout for "-": open, write, flush
 * and close, each checked.  A file written is noted on stderr as
 * "[tool] wrote PATH (N bytes)"; a failure is reported there as
 * "tool: ..." and returns false.
 */
bool writeOutput(const char *tool, const std::string &path,
                 const std::string &content);

/** Export @p records as JSON and/or CSV where @p out asks for them;
 *  false after a failed write. */
bool writeResults(const char *tool, const OutputOptions &out,
                  const ExportMeta &meta,
                  const std::vector<ResultRecord> &records);

/** Read all of @p path into @p out; a failure is reported on stderr
 *  as "tool: ..." and returns false. */
bool readInput(const char *tool, const std::string &path, std::string &out);

} // namespace gvc

#endif // GVC_HARNESS_CLI_HH
