#include "common/options.hpp"

#include "common/log.hpp"
#include "common/parse.hpp"

namespace feather {

std::string
OptionTable::invalidValue(const std::string &name, const std::string &text,
                          const std::string &expected)
{
    return strCat("invalid value for ", name, ": '", text, "' (expected ",
                  expected, ")");
}

OptionTable &
OptionTable::unknownSuffix(std::string suffix)
{
    unknown_suffix_ = std::move(suffix);
    return *this;
}

OptionTable &
OptionTable::flag(const std::string &name, const std::string &help,
                  bool *out)
{
    options_.push_back({name, "", help, [out](const std::string &) {
                            *out = true;
                            return std::string();
                        }});
    return *this;
}

OptionTable &
OptionTable::flagFn(const std::string &name, const std::string &help,
                    std::function<std::string()> fn)
{
    options_.push_back({name, "", help,
                        [fn = std::move(fn)](const std::string &) {
                            return fn();
                        }});
    return *this;
}

OptionTable &
OptionTable::str(const std::string &name, const std::string &value_name,
                 const std::string &help, std::string *out)
{
    options_.push_back({name, value_name, help,
                        [out](const std::string &value) {
                            *out = value;
                            return std::string();
                        }});
    return *this;
}

OptionTable &
OptionTable::positive(const std::string &name,
                      const std::string &value_name,
                      const std::string &help, uint64_t *out, uint64_t max)
{
    options_.push_back(
        {name, value_name, help, [name, out, max](const std::string &v) {
             if (!parsePositive(v, out, max)) {
                 const std::string what =
                     max == UINT64_MAX
                         ? "a positive integer"
                         : strCat("a positive integer <= ", max);
                 return invalidValue(name, v, what);
             }
             return std::string();
         }});
    return *this;
}

OptionTable &
OptionTable::positiveInt(const std::string &name,
                         const std::string &value_name,
                         const std::string &help, int *out, uint64_t max)
{
    options_.push_back(
        {name, value_name, help, [name, out, max](const std::string &v) {
             uint64_t n = 0;
             if (!parsePositive(v, &n, max)) {
                 return invalidValue(
                     name, v, strCat("a positive integer <= ", max));
             }
             *out = int(n);
             return std::string();
         }});
    return *this;
}

OptionTable &
OptionTable::nonNegative(const std::string &name,
                         const std::string &value_name,
                         const std::string &help, uint64_t *out)
{
    options_.push_back(
        {name, value_name, help, [name, out](const std::string &v) {
             if (!parseUint(v, out)) {
                 return invalidValue(name, v, "a non-negative integer");
             }
             return std::string();
         }});
    return *this;
}

OptionTable &
OptionTable::rangedInt(const std::string &name,
                       const std::string &value_name,
                       const std::string &help, int *out, uint64_t max)
{
    options_.push_back(
        {name, value_name, help, [name, out, max](const std::string &v) {
             uint64_t n = 0;
             if (!parseUint(v, &n) || n > max) {
                 return invalidValue(name, v,
                                     strCat("an integer in 0..", max));
             }
             *out = int(n);
             return std::string();
         }});
    return *this;
}

OptionTable &
OptionTable::custom(const std::string &name, const std::string &value_name,
                    const std::string &help, ApplyFn fn)
{
    options_.push_back({name, value_name, help, std::move(fn)});
    return *this;
}

bool
OptionTable::parse(const std::vector<std::string> &args,
                   std::string *error) const
{
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i] == "-h" ? std::string("--help")
                                                 : args[i];
        const Option *opt = nullptr;
        for (const Option &o : options_) {
            if (o.name == arg) {
                opt = &o;
                break;
            }
        }
        if (!opt) {
            *error = strCat("unknown flag '", args[i], "'",
                            unknown_suffix_);
            return false;
        }
        std::string value;
        if (!opt->value_name.empty()) {
            if (i + 1 >= args.size()) {
                *error = strCat(arg, " needs a value");
                return false;
            }
            value = args[++i];
        }
        const std::string err = opt->apply(value);
        if (!err.empty()) {
            *error = err;
            return false;
        }
    }
    return true;
}

std::string
OptionTable::helpText() const
{
    // "  --flag VALUE" padded to column 24, help continuation lines
    // indented to match (the layout the hand-written usage texts used).
    constexpr size_t kHelpCol = 24;
    std::string out;
    for (const Option &o : options_) {
        std::string head = "  " + o.name;
        if (!o.value_name.empty()) head += " " + o.value_name;
        std::string line = head;
        if (line.size() + 2 <= kHelpCol) {
            line.append(kHelpCol - line.size(), ' ');
        } else {
            line += "\n" + std::string(kHelpCol, ' ');
        }
        std::string help = o.help;
        size_t eol;
        while ((eol = help.find('\n')) != std::string::npos) {
            line += help.substr(0, eol + 1) + std::string(kHelpCol, ' ');
            help.erase(0, eol + 1);
        }
        out += line + help + "\n";
    }
    return out;
}

} // namespace feather
