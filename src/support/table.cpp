#include "support/table.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/strings.hpp"

namespace mpisect::support {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
  if (align_.size() != header_.size()) {
    align_.assign(header_.size(), Align::Right);
  }
}

void TextTable::set_align(std::vector<Align> align) {
  align_ = std::move(align);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("TextTable row arity mismatch");
  }
  rows_.push_back(std::move(row));
}

void TextTable::add_row_numeric(std::string_view label,
                                const std::vector<double>& values,
                                int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.emplace_back(label);
  for (double v : values) row.push_back(fmt_double(v, precision));
  add_row(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : width) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto line = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const auto& cell = row[c];
      const bool left = c < align_.size() && align_[c] == Align::Left;
      s += ' ';
      s.append(left ? pad_right(cell, width[c]) : pad_left(cell, width[c]));
      s.append(" |");
    }
    s += "\n";
    return s;
  };

  std::string out = rule() + line(header_) + rule();
  for (const auto& row : rows_) out += line(row);
  out += rule();
  return out;
}

std::string TextTable::render_csv() const {
  std::string out = join(header_, ",") + "\n";
  for (const auto& row : rows_) out += join(row, ",") + "\n";
  return out;
}

}  // namespace mpisect::support
