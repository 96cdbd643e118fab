/**
 * @file
 * Shared command-line helpers for the gvc_* tools.
 *
 * Three things the drivers used to duplicate (and get subtly wrong)
 * live here once:
 *
 *  - **Checked numeric parsing.**  parseU64/parseUnsigned/parseDouble
 *    fatal() with the offending flag and value instead of atoi()'s
 *    silent 0 or strtoull()'s unsigned wrap-around of "-4".
 *  - **Design-name parsing.**  Each design's row in kDesignRows
 *    (mmu/designs.hh) lists its canonical spellings; parsing accepts
 *    the gvc_run hyphen forms (vc-opt) and the gvc_sweep underscore /
 *    concatenated forms (vc_opt, baseline512) case-insensitively.
 *  - **Raw-mode design-intent carry-over.**  Raw mode (`cfg.raw_soc`)
 *    skips configFor(), so flags like `--percu-tlb 64` would otherwise
 *    erase what makes each design itself; applyRawDesignIntent()
 *    restores the design's structural identity for every field the
 *    user did not set explicitly.
 */

#ifndef GVC_HARNESS_CLI_HH
#define GVC_HARNESS_CLI_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"

namespace gvc
{

/**
 * Parse @p text as a base-10 non-negative integer; fatal() naming
 * @p flag on anything else (sign, trailing characters, overflow).
 */
std::uint64_t parseU64(const char *flag, const std::string &text);

/** parseU64() restricted to unsigned's range. */
unsigned parseUnsigned(const char *flag, const std::string &text);

/** Parse @p text as a finite double; fatal() naming @p flag otherwise. */
double parseDouble(const char *flag, const std::string &text);

/** Canonical design spelling: lowercase with '-'/'_' removed. */
std::string canonicalDesignSpelling(const std::string &name);

/**
 * Design-name lookup, case/'-'/'_'-insensitive ("vc-opt" == "vc_opt"
 * == "VcOpt"); returns false when @p name matches no design.
 */
bool tryParseDesign(const std::string &name, MmuDesign &out);

/** tryParseDesign() or fatal(). */
MmuDesign parseDesign(const std::string &name);

/**
 * Which raw-mode SocConfig fields the user set explicitly on the
 * command line.  applyRawDesignIntent() needs this to keep an explicit
 * value even when it happens to equal the struct default (the old
 * sentinel comparison silently replaced e.g. `--iommu-tlb 512` with
 * the design's size because 512 is also IommuParams's default).
 */
struct RawSocOverrides
{
    bool percu_tlb_entries = false;
    bool iommu_tlb_entries = false;
    bool fbt_entries = false;
};

/**
 * Carry a design's structural intent into a raw-mode config.
 *
 * Raw mode uses `cfg.soc` exactly as given instead of configFor(), so
 * without this every design in a raw sweep would simulate the same
 * SoC: IDEAL would lose its infinite-TLB / unlimited-bandwidth flags,
 * "VC With OPT" would lose fbt_as_second_level_tlb, and the per-design
 * TLB sizes would collapse to the struct defaults.  This applies the
 * design's Table-2 identity to every field in @p user the user did not
 * override, plus the structural flags (which are never user-settable).
 * No-op when `cfg.raw_soc` is false.
 */
void applyRawDesignIntent(RunConfig &cfg, const RawSocOverrides &user);

/** One `--shard I/N` grid position; the default {0, 1} is "all cells". */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;
};

/**
 * Parse "I/N" with 0 <= I < N (e.g. "0/4" ... "3/4").  Returns false
 * and stores a message in @p err (when non-null) on malformed input.
 */
bool parseShardSpec(const std::string &text, ShardSpec &out,
                    std::string *err = nullptr);

} // namespace gvc

#endif // GVC_HARNESS_CLI_HH
