#include "common/table.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/log.hpp"

namespace feather {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    FEATHER_CHECK(cells.size() == headers_.size(),
                  "row arity ", cells.size(), " != header arity ",
                  headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::toString() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
    }
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ");
            os << row[c];
            os << std::string(widths[c] - row[c].size(), ' ');
        }
        os << " |\n";
    };
    emit_row(headers_);
    os << '|';
    for (size_t c = 0; c < headers_.size(); ++c) {
        os << std::string(widths[c] + 2, '-') << '|';
    }
    os << '\n';
    for (const auto &row : rows_) {
        emit_row(row);
    }
    return os.str();
}

std::string
Table::toCsv() const
{
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            if (c) os << ',';
            os << row[c];
        }
        os << '\n';
    };
    emit_row(headers_);
    for (const auto &row : rows_) {
        emit_row(row);
    }
    return os.str();
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtRatio(double v, int precision)
{
    return fmtDouble(v, precision) + "x";
}

std::string
fmtPercent(double v, int precision)
{
    return fmtDouble(v * 100.0, precision) + "%";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (uint8_t(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
csvSafe(std::string s)
{
    for (char &c : s) {
        if (c == ',' || c == '\n') c = ';';
    }
    return s;
}

std::string
jsonObject(const std::vector<FieldValue> &values)
{
    std::string out = "{";
    for (const FieldValue &f : values) {
        if (out.size() > 1) out += ',';
        out += strCat('"', f.name, "\":");
        out += f.kind == FieldKind::Text
                   ? strCat('"', jsonEscape(f.value), '"')
                   : f.value;
    }
    return out + "}";
}

std::vector<std::string>
csvNames(const std::vector<FieldValue> &values)
{
    std::vector<std::string> out;
    for (const FieldValue &f : values) out.push_back(f.name);
    return out;
}

std::vector<std::string>
csvCells(const std::vector<FieldValue> &values)
{
    std::vector<std::string> out;
    for (const FieldValue &f : values) {
        out.push_back(f.kind == FieldKind::Text ? csvSafe(f.value) : f.value);
    }
    return out;
}

} // namespace feather
