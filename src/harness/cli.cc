#include "harness/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace gvc
{

namespace
{

/**
 * Strict base-10 uint64 parse shared by the fatal() wrappers and
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

} // namespace

std::uint64_t
parseU64(const char *flag, const std::string &text)
{
    std::uint64_t v = 0;
    if (!tryParseU64(text, v))
        fatal(std::string(flag) +
              ": expected a non-negative integer, got '" + text + "'");
    return v;
}

unsigned
parseUnsigned(const char *flag, const std::string &text)
{
    const std::uint64_t v = parseU64(flag, text);
    if (v > 0xffffffffull)
        fatal(std::string(flag) + ": value '" + text +
              "' is out of range");
    return unsigned(v);
}

double
parseDouble(const char *flag, const std::string &text)
{
    const char *s = text.c_str();
    if (text.empty() || std::isspace(static_cast<unsigned char>(*s)))
        fatal(std::string(flag) + ": expected a number, got '" + text +
              "'");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        fatal(std::string(flag) + ": expected a number, got '" + text +
              "'");
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        fatal(std::string(flag) + ": value '" + text +
              "' is out of range");
    return v;
}

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

MmuDesign
parseDesign(const std::string &name)
{
    MmuDesign d;
    if (!tryParseDesign(name, d))
        fatal("unknown design '" + name + "' (try --list)");
    return d;
}

void
applyRawDesignIntent(RunConfig &cfg, const RawSocOverrides &user)
{
    if (!cfg.raw_soc)
        return;
    const SocConfig d = configFor(cfg.design, {});
    if (!user.percu_tlb_entries)
        cfg.soc.percu_tlb_entries = d.percu_tlb_entries;
    if (!user.iommu_tlb_entries)
        cfg.soc.iommu.tlb_entries = d.iommu.tlb_entries;
    if (!user.fbt_entries)
        cfg.soc.fbt.entries = d.fbt.entries;
    cfg.soc.fbt_as_second_level_tlb = d.fbt_as_second_level_tlb;
    cfg.soc.percu_tlb_infinite = d.percu_tlb_infinite;
    cfg.soc.iommu.tlb_infinite = d.iommu.tlb_infinite;
    cfg.soc.iommu.unlimited_bw =
        cfg.soc.iommu.unlimited_bw || d.iommu.unlimited_bw;
    // Reach-generalized designs are defined by these knobs, not by
    // structure sizes, so raw mode must carry them too.
    cfg.soc.vm_page_policy = d.vm_page_policy;
    cfg.soc.tlb_max_reach = d.tlb_max_reach;
    cfg.soc.tlb_merge_on_insert = d.tlb_merge_on_insert;
    cfg.soc.coalesce_max_reach = d.coalesce_max_reach;
    cfg.soc.victima_stash = d.victima_stash;
}

bool
parseShardSpec(const std::string &text, ShardSpec &out, std::string *err)
{
    const auto bad = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return bad("expected I/N (e.g. 0/4), got '" + text + "'");
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (!tryParseU64(text.substr(0, slash), index) ||
        !tryParseU64(text.substr(slash + 1), count))
        return bad("expected I/N (e.g. 0/4), got '" + text + "'");
    if (count == 0 || count > 0xffffffffull)
        return bad("shard count must be between 1 and 2^32-1, got '" +
                   text + "'");
    if (index >= count)
        return bad("shard index " + std::to_string(index) +
                   " out of range for /" + std::to_string(count) +
                   " (valid: 0.." + std::to_string(count - 1) + ")");
    out.index = unsigned(index);
    out.count = unsigned(count);
    return true;
}

} // namespace gvc
