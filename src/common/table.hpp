#pragma once

/**
 * @file
 * Console table / CSV emitter used by every benchmark binary so the harness
 * prints the same row/series structure the paper's figures and tables report,
 * plus the report-record writer that derives a record's CSV header, CSV row
 * and JSON object from one field list.
 */

#include <string>
#include <type_traits>
#include <vector>

namespace feather {

/** A simple column-aligned text table that can also be dumped as CSV. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns for console output. */
    std::string toString() const;

    /** Render as CSV (no quoting; cells must not contain commas). */
    std::string toCsv() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p precision decimal digits. */
std::string fmtDouble(double v, int precision = 2);

/** Format a ratio like "2.65x". */
std::string fmtRatio(double v, int precision = 2);

/** Format a fraction as a percentage like "98.3%". */
std::string fmtPercent(double v, int precision = 1);

/** Minimal JSON string escaping (quotes, backslashes, control chars) for
 *  the single-line JSON reports (see jsonObject). */
std::string jsonEscape(const std::string &s);

/** Replace ','/'\n' with ';' so a cell survives Table::toCsv (which does
 *  no quoting). */
std::string csvSafe(std::string s);

/** How a report value is written. Text is csvSafe'd in CSV and quoted
 *  plus jsonEscape'd in JSON; Number is written verbatim in both, which
 *  also covers pre-rendered JSON (nested objects, arrays, true/false). */
enum class FieldKind { Text, Number };

/**
 * One named value of a report record. A record type's field list is a
 * function from a record to its FieldValues in column order, the one
 * place its CSV columns and JSON keys are spelled: the CSV header is the
 * names it gives for a default record, a CSV row and a JSON object are
 * the values it gives for a real one. Optional fields are handled by
 * building the list with or without them.
 */
struct FieldValue
{
    std::string name;
    FieldKind kind;
    std::string value;
};

inline FieldValue
textField(std::string name, std::string value)
{
    return {std::move(name), FieldKind::Text, std::move(value)};
}

/** @p value is already rendered: a fixed-precision double, nested JSON
 *  or true/false. */
inline FieldValue
numberField(std::string name, std::string value)
{
    return {std::move(name), FieldKind::Number, std::move(value)};
}
template <typename N, typename = std::enable_if_t<std::is_integral_v<N>>>
FieldValue
numberField(std::string name, N value)
{
    return numberField(std::move(name), std::to_string(value));
}

/** @p values as one single-line JSON object, in order. */
std::string jsonObject(const std::vector<FieldValue> &values);

/** @p values' names: a CSV header. */
std::vector<std::string> csvNames(const std::vector<FieldValue> &values);

/** @p values as CSV cells (Text csvSafe'd). */
std::vector<std::string> csvCells(const std::vector<FieldValue> &values);

/** Header plus one row per record of @p rows, under field list @p fields. */
template <typename T, typename Fields>
std::string
csvTable(const std::vector<T> &rows, Fields fields)
{
    Table t(csvNames(fields(T{})));
    for (const T &r : rows) t.addRow(csvCells(fields(r)));
    return t.toCsv();
}

/** One JSON object per record in [@p first, @p last), as an array. */
template <typename It, typename Fields>
std::string
jsonArray(It first, It last, Fields fields)
{
    std::string out = "[";
    for (It it = first; it != last; ++it) {
        out += (it == first ? "" : ",") + jsonObject(fields(*it));
    }
    return out + "]";
}

} // namespace feather
