#pragma once

/**
 * @file
 * Declarative command-line option tables, shared by every CLI surface
 * (feather_cli's sim/batch/model modes and feather_serve).
 *
 * Each binary used to hand-roll the same parse loop: a `value` lambda
 * fetching the next arg, a `uintValue` wrapper, bespoke range checks, and
 * subtly different error texts. An OptionTable declares each flag once —
 * name, arity (a value name or none), validator, help line — and the
 * shared parse loop produces uniform one-line errors that always name the
 * offending flag:
 *
 *   unknown flag '--x'<suffix>
 *   --x needs a value
 *   invalid value for --x: 'v' (expected <what>)
 *
 * helpText() renders the declarations as the aligned two-column block the
 * usage texts embed, so flags are documented where they are declared.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace feather {

/** A declarative flag table: declare once, parse + document from it. */
class OptionTable
{
  public:
    /** Handle one occurrence (@p value empty for 0-arity flags); returns
     *  "" on success or the complete one-line error message. */
    using ApplyFn = std::function<std::string(const std::string &value)>;

    /** Appended to "unknown flag '--x'" (e.g. " (see --help)"). */
    OptionTable &unknownSuffix(std::string suffix);

    /** A 0-arity flag that sets @p out. */
    OptionTable &flag(const std::string &name, const std::string &help,
                      bool *out);

    /** A 0-arity flag with a custom handler (mode selection etc.). */
    OptionTable &flagFn(const std::string &name, const std::string &help,
                        std::function<std::string()> fn);

    /** A flag taking one arbitrary string value. */
    OptionTable &str(const std::string &name, const std::string &value_name,
                     const std::string &help, std::string *out);

    /** A strictly positive integer <= @p max. */
    OptionTable &positive(const std::string &name,
                          const std::string &value_name,
                          const std::string &help, uint64_t *out,
                          uint64_t max = UINT64_MAX);
    OptionTable &positiveInt(const std::string &name,
                             const std::string &value_name,
                             const std::string &help, int *out,
                             uint64_t max);

    /** Any non-negative integer (0 allowed, full uint64 range). */
    OptionTable &nonNegative(const std::string &name,
                             const std::string &value_name,
                             const std::string &help, uint64_t *out);

    /** A non-negative integer <= @p max (0 allowed). */
    OptionTable &rangedInt(const std::string &name,
                           const std::string &value_name,
                           const std::string &help, int *out, uint64_t max);

    /** A flag with one value and a custom handler. The handler returns ""
     *  on success, or the full error message (use invalidValue()). */
    OptionTable &custom(const std::string &name,
                        const std::string &value_name,
                        const std::string &help, ApplyFn fn);

    /**
     * Parse @p args against the table. False with a one-line @p error
     * naming the offending flag on the first invalid input. "-h" is
     * accepted for "--help" when the table declares the latter.
     */
    bool parse(const std::vector<std::string> &args,
               std::string *error) const;

    /** The aligned two-column help block (one line per declared flag, in
     *  declaration order), for embedding into a usage text. */
    std::string helpText() const;

    /** The standard bad-value message: shared by custom handlers so every
     *  CLI phrases validation failures identically. */
    static std::string invalidValue(const std::string &name,
                                    const std::string &text,
                                    const std::string &expected);

  private:
    struct Option
    {
        std::string name;
        std::string value_name; ///< "" = 0-arity flag
        std::string help;
        ApplyFn apply;
    };

    std::vector<Option> options_;
    std::string unknown_suffix_;
};

} // namespace feather
