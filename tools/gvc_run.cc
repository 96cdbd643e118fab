/**
 * @file
 * gvc_run — command-line driver: run any (workload, MMU design) pair
 * with structure sizes overridable from the command line, and print a
 * full statistics report.
 *
 *   gvc_run --list
 *   gvc_run --workload pagerank --design vc-opt
 *   gvc_run -w mis -d baseline-512 --scale 1.0 --iommu-bw 2
 *   gvc_run -w bfs -d vc-opt --fbt-entries 4096 --remap-entries 256
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "harness/cli.hh"
#include "harness/energy.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "mmu/boundary.hh"

using namespace gvc;

namespace
{

struct Options
{
    std::string workload = "pagerank";
    std::string design = "vc-opt";
    RunConfig cfg;
    RawSocOverrides raw_set; ///< Raw fields set explicitly by the user.
    std::string trace_out; ///< Capture the run into this trace file.
    std::string json_out;  ///< Emit the RunResult as JSON (path or -).
    bool dump_stats = false;
    /** Multi-kernel scenario: rounds of the workload plus the policy. */
    ScenarioSpec scenario;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: gvc_run [options]\n"
        "  -w, --workload NAME     workload (see --list)\n"
        "  -d, --design NAME       ideal | baseline-512 | baseline-16k |\n"
        "                          baseline-large-tlb | vc | vc-opt |\n"
        "                          l1vc-32 | l1vc-128 | base-2mb |\n"
        "                          base-coalesced | base-victima\n"
        "      --scale F           workload scale factor (default 0.5)\n"
        "      --seed N            workload RNG seed\n"
        "      --percu-tlb N       per-CU TLB entries (raw mode)\n"
        "      --iommu-tlb N       shared IOMMU TLB entries (raw mode)\n"
        "      --iommu-bw F        shared TLB accesses/cycle\n"
        "      --iommu-banks N     shared TLB banks\n"
        "      --fbt-entries N     FBT entries (raw mode)\n"
        "      --remap-entries N   synonym remap table entries\n"
        "      --tlb-fill-policy P per-CU TLB fill policy: lru |\n"
        "                          bypass-dead (static next-line) |\n"
        "                          bypass-trained (trained predictor +\n"
        "                          dead-first victim selection)\n"
        "      --iommu-tlb-fill-policy P\n"
        "                          same policies for the shared IOMMU TLB\n"
        "      --tlb-replacement R TLB replacement, both levels: lru |\n"
        "                          srrip | brrip | drrip\n"
        "      --cus N             number of compute units\n"
        "      --kernels N         run the workload N times back-to-back\n"
        "                          on one warm memory system (scenario)\n"
        "      --boundary NAME     policy between kernels: keep-all |\n"
        "                          flush-l1 | flush-all | shootdown\n"
        "      --trace-out PATH    capture the workload into a trace file\n"
        "      --trace-in PATH     replay a trace file (ignores -w/--scale/\n"
        "                          --seed; metadata comes from the trace);\n"
        "                          a scenario trace (.gvct v2) replays its\n"
        "                          kernel boundaries automatically\n"
        "      --json PATH|-       write the RunResult as JSON\n"
        "      --stats             dump the full statistics registry\n"
        "      --list              list workloads and exit\n"
        "      --help              this text\n");
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.cfg.workload.scale = 0.5;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(1);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "--stats") {
            opt.dump_stats = true;
        } else if (a == "--list") {
            for (const auto &n : allWorkloadNames())
                std::printf("%s\n", n.c_str());
            for (const auto &n : extraWorkloadNames())
                std::printf("%s (extra)\n", n.c_str());
            std::exit(0);
        } else if (a == "-w" || a == "--workload") {
            opt.workload = need(i);
        } else if (a == "-d" || a == "--design") {
            opt.design = need(i);
        } else if (a == "--scale") {
            opt.cfg.workload.scale = parseDouble("--scale", need(i));
        } else if (a == "--seed") {
            opt.cfg.workload.seed = parseU64("--seed", need(i));
        } else if (a == "--percu-tlb") {
            opt.cfg.soc.percu_tlb_entries =
                parseUnsigned("--percu-tlb", need(i));
            opt.raw_set.percu_tlb_entries = true;
            opt.cfg.raw_soc = true;
        } else if (a == "--iommu-tlb") {
            opt.cfg.soc.iommu.tlb_entries =
                parseUnsigned("--iommu-tlb", need(i));
            opt.raw_set.iommu_tlb_entries = true;
            opt.cfg.raw_soc = true;
        } else if (a == "--iommu-bw") {
            opt.cfg.soc.iommu.accesses_per_cycle =
                parseDouble("--iommu-bw", need(i));
        } else if (a == "--iommu-banks") {
            opt.cfg.soc.iommu.banks =
                parseUnsigned("--iommu-banks", need(i));
        } else if (a == "--fbt-entries") {
            opt.cfg.soc.fbt.entries =
                parseUnsigned("--fbt-entries", need(i));
            opt.raw_set.fbt_entries = true;
            opt.cfg.raw_soc = true;
        } else if (a == "--remap-entries") {
            opt.cfg.soc.synonym_remap_entries =
                parseUnsigned("--remap-entries", need(i));
        } else if (a == "--tlb-fill-policy") {
            const std::string name = need(i);
            if (!tlbFillPolicyFromName(
                    name, opt.cfg.soc.percu_tlb_fill_policy)) {
                fatal("--tlb-fill-policy: unknown policy '" + name +
                      "' (lru | bypass-dead | bypass-trained)");
            }
        } else if (a == "--iommu-tlb-fill-policy") {
            const std::string name = need(i);
            if (!tlbFillPolicyFromName(
                    name, opt.cfg.soc.iommu_tlb_fill_policy)) {
                fatal("--iommu-tlb-fill-policy: unknown policy '" +
                      name + "' (lru | bypass-dead | bypass-trained)");
            }
        } else if (a == "--tlb-replacement") {
            const std::string name = need(i);
            if (!tlbReplacementFromName(name,
                                        opt.cfg.soc.tlb_replacement)) {
                fatal("--tlb-replacement: unknown policy '" + name +
                      "' (lru | srrip | brrip | drrip)");
            }
        } else if (a == "--cus") {
            opt.cfg.soc.gpu.num_cus = parseUnsigned("--cus", need(i));
        } else if (a == "--kernels") {
            opt.scenario.rounds = parseUnsigned("--kernels", need(i));
            if (opt.scenario.rounds == 0)
                fatal("--kernels: must be >= 1");
        } else if (a == "--boundary") {
            const std::string name = need(i);
            if (!boundaryPolicyFromName(name, opt.scenario.boundary))
                fatal("--boundary: unknown policy '" + name +
                      "' (keep-all | flush-l1 | flush-all | shootdown)");
        } else if (a == "--trace-out") {
            opt.trace_out = need(i);
        } else if (a == "--trace-in") {
            opt.cfg.trace_in = need(i);
        } else if (a == "--json") {
            opt.json_out = need(i);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(1);
        }
    }
    opt.cfg.design = parseDesign(opt.design);
    applyRawDesignIntent(opt.cfg, opt.raw_set);
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const bool scenario = opt.scenario.rounds > 1;
    if (opt.cfg.trace_in.empty()) {
        std::printf("gvc_run: %s under %s (scale %.2f, seed %llu)\n",
                    opt.workload.c_str(), designName(opt.cfg.design),
                    opt.cfg.workload.scale,
                    (unsigned long long)opt.cfg.workload.seed);
    } else {
        std::printf("gvc_run: replaying '%s' under %s\n",
                    opt.cfg.trace_in.c_str(),
                    designName(opt.cfg.design));
    }
    if (scenario) {
        std::printf("scenario: %u kernels, boundary %s\n",
                    opt.scenario.rounds,
                    boundaryPolicyName(opt.scenario.boundary));
    }
    std::printf("\n");

    std::string stats_dump;
    trace::Trace capture;
    trace::Trace *cap = opt.trace_out.empty() ? nullptr : &capture;
    const InspectFn inspect =
        [&](SystemUnderTest &sut, Gpu &, SimContext &ctx) {
            if (!opt.dump_stats)
                return;
            sut.registerStats(ctx.stats);
            std::ostringstream os;
            ctx.stats.dump(os);
            stats_dump = os.str();
        };
    const RunResult r =
        scenario ? runScenario(opt.workload, opt.cfg, opt.scenario,
                               inspect, cap)
                 : runWorkload(opt.workload, opt.cfg, inspect, cap);
    if (cap) {
        std::string err;
        if (!trace::TraceWriter::writeFile(opt.trace_out, capture, &err))
            fatal("gvc_run: " + err);
        std::fprintf(stderr,
                     "[gvc_run] wrote trace '%s' (%llu warps, %llu "
                     "instructions, digest %016llx)\n",
                     opt.trace_out.c_str(),
                     (unsigned long long)capture.totalWarps(),
                     (unsigned long long)capture.totalInstructions(),
                     (unsigned long long)trace::traceDigest(capture));
    }
    if (!opt.json_out.empty()) {
        const SocConfig effective = effectiveSoc(opt.cfg);
        const std::string doc =
            runResultToJson(r, &effective).dump(2) + "\n";
        if (opt.json_out == "-") {
            std::fputs(doc.c_str(), stdout);
        } else {
            std::FILE *f = std::fopen(opt.json_out.c_str(), "wb");
            if (!f)
                fatal("gvc_run: cannot open '" + opt.json_out + "'");
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    const EnergyEstimate e = estimateEnergy(r);

    std::printf("execution\n");
    std::printf("  cycles                  : %llu\n",
                (unsigned long long)r.exec_ticks);
    std::printf("  warp instructions       : %llu (%llu memory)\n",
                (unsigned long long)r.instructions,
                (unsigned long long)r.mem_instructions);
    std::printf("  lines per mem inst      : %.2f\n",
                r.lines_per_mem_inst);
    std::printf("caches\n");
    std::printf("  L1 accesses / hit ratio : %llu / %.1f%%\n",
                (unsigned long long)r.l1_accesses,
                100.0 * r.l1_hit_ratio);
    std::printf("  L2 accesses / hit ratio : %llu / %.1f%%\n",
                (unsigned long long)r.l2_accesses,
                100.0 * r.l2_hit_ratio);
    std::printf("  DRAM traffic            : %llu accesses, %.1f MB\n",
                (unsigned long long)r.dram_accesses,
                double(r.dram_bytes) / (1 << 20));
    std::printf("translation\n");
    if (r.tlb_accesses) {
        std::printf("  per-CU TLB              : %llu accesses, %.1f%% "
                    "miss\n",
                    (unsigned long long)r.tlb_accesses,
                    100.0 * r.tlb_miss_ratio);
    }
    std::printf("  shared IOMMU TLB        : %llu accesses "
                "(%.3f/cycle mean, %.3f max)\n",
                (unsigned long long)r.iommu_accesses, r.iommu_apc_mean,
                r.iommu_apc_max);
    std::printf("  mean serialization      : %.1f cycles/access\n",
                r.iommu_serialization_mean);
    std::printf("  page walks              : %llu\n",
                (unsigned long long)r.page_walks);
    if (r.tlb_reach_fills || r.iommu_reach_fills || r.tlb_merges) {
        std::printf("  reach entries           : %llu fills / %llu hits "
                    "(per-CU), %llu merges, %llu coalesced\n",
                    (unsigned long long)r.tlb_reach_fills,
                    (unsigned long long)r.tlb_reach_hits,
                    (unsigned long long)r.tlb_merges,
                    (unsigned long long)r.iommu_coalesced_fills);
    }
    if (r.large_page_walks) {
        std::printf("  2MB-leaf walks          : %llu\n",
                    (unsigned long long)r.large_page_walks);
    }
    if (r.victima_stashes || r.victima_probes) {
        std::printf("  victima stash           : %llu stashes, %llu "
                    "probes, %llu hits\n",
                    (unsigned long long)r.victima_stashes,
                    (unsigned long long)r.victima_probes,
                    (unsigned long long)r.victima_hits);
    }
    if (r.tlb_fill_bypasses || r.iommu_fill_bypasses) {
        std::printf("  fill bypasses           : %llu per-CU, %llu "
                    "IOMMU\n",
                    (unsigned long long)r.tlb_fill_bypasses,
                    (unsigned long long)r.iommu_fill_bypasses);
    }
    if (r.tlb_dead_first_evictions || r.iommu_dead_first_evictions) {
        std::printf("  dead-first evictions    : %llu per-CU, %llu "
                    "IOMMU\n",
                    (unsigned long long)r.tlb_dead_first_evictions,
                    (unsigned long long)r.iommu_dead_first_evictions);
    }
    if (r.tlb_pred_true_pos || r.tlb_pred_false_pos ||
        r.iommu_pred_true_pos || r.iommu_pred_false_pos) {
        std::printf("  dead-pred samples       : per-CU %llu dead / "
                    "%llu reused, IOMMU %llu / %llu\n",
                    (unsigned long long)r.tlb_pred_true_pos,
                    (unsigned long long)r.tlb_pred_false_pos,
                    (unsigned long long)r.iommu_pred_true_pos,
                    (unsigned long long)r.iommu_pred_false_pos);
    }
    if (r.fbt_lookups) {
        std::printf("  FBT lookups             : %llu (second-level "
                    "TLB hit %.1f%%)\n",
                    (unsigned long long)r.fbt_lookups,
                    100.0 * r.fbt_second_level_hit_ratio);
        std::printf("  FBT resident pages      : %llu (purges %llu)\n",
                    (unsigned long long)r.fbt_valid_pages,
                    (unsigned long long)r.fbt_purges);
        std::printf("  synonym replays/faults  : %llu / %llu\n",
                    (unsigned long long)r.synonym_replays,
                    (unsigned long long)r.rw_faults);
    }
    if (!r.kernels.empty()) {
        std::printf("per-kernel (deltas between boundaries)\n");
        std::printf("  %3s %12s %12s %12s %10s %8s %8s\n", "k",
                    "cycles", "instructions", "iommu_acc", "walks",
                    "l1hit%", "l2hit%");
        for (std::size_t k = 0; k < r.kernels.size(); ++k) {
            const KernelStats &ks = r.kernels[k];
            const double l1 =
                ks.l1_accesses
                    ? 100.0 * double(ks.l1_hits) / double(ks.l1_accesses)
                    : 0.0;
            const double l2 =
                ks.l2_accesses
                    ? 100.0 * double(ks.l2_hits) / double(ks.l2_accesses)
                    : 0.0;
            std::printf("  %3zu %12llu %12llu %12llu %10llu %7.1f%% "
                        "%7.1f%%\n",
                        k, (unsigned long long)ks.exec_ticks,
                        (unsigned long long)ks.instructions,
                        (unsigned long long)ks.iommu_accesses,
                        (unsigned long long)ks.page_walks, l1, l2);
        }
    }
    if (opt.dump_stats) {
        std::printf("statistics registry\n%s", stats_dump.c_str());
    }
    std::printf("energy estimate (illustrative)\n");
    std::printf("  translation / caches / DRAM : %.0f / %.0f / %.0f "
                "nJ\n",
                e.translation_nj, e.cache_nj, e.dram_nj);
    return 0;
}
