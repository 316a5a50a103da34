#include "checker/report.hpp"

#include <array>
#include <cstdio>
#include <string>

#include "support/csv.hpp"
#include "support/provenance.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace mpisect::checker {

namespace {

std::string format_time(double t) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.6f", t);
  return buf.data();
}

/// The CSV writer does not quote cells, so keep separators out of them.
std::string csv_safe(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n') c = ';';
  }
  return s;
}

}  // namespace

std::string render_text(const std::vector<Diagnostic>& diags) {
  support::TextTable table;
  table.set_header(
      {"category", "severity", "rank", "comm", "t_virtual", "site", "message"});
  table.set_align({support::TextTable::Align::Left,
                   support::TextTable::Align::Left,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Right,
                   support::TextTable::Align::Left,
                   support::TextTable::Align::Left});
  for (const auto& d : diags) {
    table.add_row({category_name(d.category), severity_name(d.severity),
                   std::to_string(d.rank), std::to_string(d.comm_context),
                   format_time(d.t_virtual), d.site, d.message});
  }
  return table.render();
}

std::string render_csv(const std::vector<Diagnostic>& diags) {
  support::CsvWriter csv(
      {"category", "severity", "rank", "comm", "t_virtual", "site", "message"});
  for (const auto& d : diags) {
    csv.add_row(std::vector<std::string>{
        category_name(d.category), severity_name(d.severity),
        std::to_string(d.rank), std::to_string(d.comm_context),
        format_time(d.t_virtual), csv_safe(d.site), csv_safe(d.message)});
  }
  return support::provenance_csv_comment() + csv.str();
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    out += "  {\"category\": \"";
    out += category_name(d.category);
    out += "\", \"severity\": \"";
    out += severity_name(d.severity);
    out += "\", \"rank\": " + std::to_string(d.rank);
    out += ", \"comm\": " + std::to_string(d.comm_context);
    out += ", \"t_virtual\": " + format_time(d.t_virtual);
    out += ", \"site\": \"" + support::json_escape(d.site);
    out += "\", \"message\": \"" + support::json_escape(d.message) + "\"}";
    out += i + 1 < diags.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

std::string render_summary(const std::vector<Diagnostic>& diags) {
  return render_summary(diags, "mpicheck");
}

std::string render_summary(const std::vector<Diagnostic>& diags,
                           const std::string& tool) {
  if (diags.empty()) return tool + ": no findings";
  std::array<std::size_t, kCategoryCount> per_cat{};
  for (const auto& d : diags) {
    ++per_cat[static_cast<std::size_t>(d.category)];
  }
  std::string out = tool + ": " + std::to_string(diags.size()) + " finding(s):";
  for (int c = 0; c < kCategoryCount; ++c) {
    if (per_cat[static_cast<std::size_t>(c)] == 0) continue;
    out += " ";
    out += category_name(static_cast<Category>(c));
    out += '=';
    out.append(std::to_string(per_cat[static_cast<std::size_t>(c)]));
  }
  return out;
}

}  // namespace mpisect::checker
