#include "model/fleet.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "baselines/arch_zoo.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace model {

namespace {

constexpr size_t kMaxDevices = 64;
constexpr uint64_t kMaxFeatherRows = 1024;

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::string
validEntries()
{
    std::string names;
    for (const std::string &n : baselines::archZoo().names()) {
        if (!names.empty()) names += ", ";
        names += n;
    }
    return strCat(names, ", or feather:<COLS>x<ROWS>");
}

bool
parseEntry(const std::string &entry, FleetDevice *out, std::string *error)
{
    const std::string prefix = "feather:";
    if (entry.compare(0, prefix.size(), prefix) == 0) {
        const std::string shape = entry.substr(prefix.size());
        const size_t x = shape.find('x');
        uint64_t cols = 0;
        uint64_t rows = 0;
        if (x == std::string::npos ||
            !parsePositive(shape.substr(0, x), &cols, sim::kMaxFeatherCols) ||
            !parsePositive(shape.substr(x + 1), &rows, kMaxFeatherRows) ||
            cols < 2) {
            // BIRRD needs at least two inputs: one column runs nothing.
            *error = strCat("bad --fleet entry '", entry,
                            "' (expected feather:<COLS>x<ROWS> with COLS "
                            "in 2..",
                            sim::kMaxFeatherCols, " and ROWS in 1..",
                            kMaxFeatherRows, ")");
            return false;
        }
        if ((cols & (cols - 1)) != 0) {
            *error = strCat("bad --fleet entry '", entry,
                            "' (BIRRD needs a power-of-two column count, "
                            "got ",
                            cols, ")");
            return false;
        }
        out->aw = int(cols);
        out->ah = int(rows);
        out->capability = int64_t(cols * rows);
        out->name = entry;
        return true;
    }
    const baselines::ZooEntry *zoo = baselines::archZoo().lookup(entry);
    if (!zoo) {
        *error = strCat("unknown device '", entry, "' in --fleet (known: ",
                        validEntries(), ")");
        return false;
    }
    const ArchSpec arch = zoo->make(WorkloadKind::Conv);
    out->aw = arch.pe_cols;
    out->ah = arch.pe_rows;
    out->capability = arch.numPes();
    out->name = entry;
    return true;
}

} // namespace

int
FleetSpec::deviceIndex(const std::string &name) const
{
    for (size_t d = 0; d < devices.size(); ++d) {
        if (devices[d].name == name) return int(d);
    }
    return -1;
}

bool
parseFleetSpec(const std::string &text, FleetSpec *out, std::string *error)
{
    out->devices.clear();
    out->spec.clear();

    // A readable file of that name wins; anything else is an inline spec.
    std::string body = text;
    {
        std::ifstream in(text, std::ios::binary);
        if (in) {
            std::ostringstream content;
            content << in.rdbuf();
            body = content.str();
        }
    }

    // Entries split on commas and newlines; '#' starts a comment.
    std::vector<std::string> entries;
    std::string cur;
    bool comment = false;
    for (char c : body + "\n") {
        if (c == '\n') {
            comment = false;
            c = ',';
        }
        if (comment) continue;
        if (c == '#') {
            comment = true;
            continue;
        }
        if (c == ',') {
            const std::string e = trim(cur);
            if (!e.empty()) entries.push_back(e);
            cur.clear();
            continue;
        }
        cur += c;
    }

    if (entries.empty()) {
        *error = strCat("--fleet '", text, "' names no devices (expected ",
                        validEntries(), ")");
        return false;
    }
    if (entries.size() > kMaxDevices) {
        *error = strCat("--fleet lists ", entries.size(), " devices (max ",
                        kMaxDevices, ")");
        return false;
    }

    for (const std::string &entry : entries) {
        FleetDevice dev;
        if (!parseEntry(entry, &dev, error)) return false;
        // Report names must be unique: repeats get an occurrence suffix.
        int repeats = 0;
        for (const FleetDevice &d : out->devices) {
            if (d.name == dev.name ||
                d.name.compare(0, dev.name.size() + 1, dev.name + "#") ==
                    0) {
                ++repeats;
            }
        }
        if (repeats > 0) dev.name = strCat(dev.name, "#", repeats + 1);
        if (!out->spec.empty()) out->spec += ",";
        out->spec += entry;
        out->devices.push_back(std::move(dev));
    }
    return true;
}

} // namespace model
} // namespace feather
