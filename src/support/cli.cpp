#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/log.hpp"
#include "support/provenance.hpp"
#include "support/strings.hpp"

namespace mpisect::support {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_int(const std::string& name, long long def,
                        const std::string& help) {
  options_[name] = Option{Kind::Int, help, std::to_string(def)};
  order_.push_back(name);
}

void ArgParser::add_double(const std::string& name, double def,
                           const std::string& help) {
  options_[name] = Option{Kind::Double, help, std::to_string(def)};
  order_.push_back(name);
}

void ArgParser::add_string(const std::string& name, std::string def,
                           const std::string& help) {
  options_[name] = Option{Kind::String, help, std::move(def)};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{Kind::Flag, help, "0"};
  order_.push_back(name);
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help) {
  options_[name] = Option{Kind::String, help, ""};
  positionals_.push_back(name);
}

bool ArgParser::set_value(const std::string& name, const std::string& value) {
  auto it = options_.find(name);
  if (it == options_.end()) return false;
  it->second.value = value;
  it->second.flag_set = true;
  return true;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg == "--version") {
      std::fprintf(stdout, "%s\n", provenance_banner(program_).c_str());
      return false;
    }
    if (!starts_with(arg, "--")) {
      if (next_positional < positionals_.size()) {
        set_value(positionals_[next_positional++], arg);
        continue;
      }
      // Diagnostics go through the shared log sink (one format, honors
      // MPISECT_LOG); the multi-line usage text stays raw on stderr.
      MPISECT_LOG_ERROR("%s: unexpected argument '%s'", program_.c_str(),
                        arg.c_str());
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      MPISECT_LOG_ERROR("%s: unknown option '--%s'", program_.c_str(),
                        arg.c_str());
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    if (it->second.kind == Kind::Flag) {
      it->second.value = has_value ? value : "1";
      it->second.flag_set = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        MPISECT_LOG_ERROR("%s: option '--%s' requires a value",
                          program_.c_str(), arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    set_value(arg, value);
  }
  if (next_positional < positionals_.size()) {
    MPISECT_LOG_ERROR("%s: missing required argument <%s>", program_.c_str(),
                      positionals_[next_positional].c_str());
    std::fputs(usage().c_str(), stderr);
    return false;
  }
  return true;
}

const ArgParser::Option& ArgParser::require(const std::string& name,
                                            Kind kind) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::logic_error("ArgParser: undeclared option '" + name + "'");
  }
  return it->second;
}

long long ArgParser::get_int(const std::string& name) const {
  return std::strtoll(require(name, Kind::Int).value.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name) const {
  return std::strtod(require(name, Kind::Double).value.c_str(), nullptr);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return require(name, Kind::String).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return require(name, Kind::Flag).value != "0";
}

std::string ArgParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n";
  if (!positionals_.empty()) {
    out += "\nusage: " + program_;
    for (const auto& name : positionals_) out += " <" + name + ">";
    out += " [options]\n\narguments:\n";
    for (const auto& name : positionals_) {
      out += pad_right("  <" + name + ">", 28) + options_.at(name).help + "\n";
    }
  }
  out += "\noptions:\n";
  for (const auto& name : order_) {
    const auto& opt = options_.at(name);
    std::string left = "  --" + name;
    switch (opt.kind) {
      case Kind::Int: left += " <int>"; break;
      case Kind::Double: left += " <float>"; break;
      case Kind::String: left += " <str>"; break;
      case Kind::Flag: break;
    }
    out += pad_right(left, 28) + opt.help;
    if (opt.kind != Kind::Flag) out += " (default: " + opt.value + ")";
    out += "\n";
  }
  return out;
}

void add_unified_flags(ArgParser& args, const std::string& model_default,
                       const std::string& export_default,
                       long long seed_default) {
  args.add_string("model", model_default, "machine model preset");
  args.add_string("export", export_default, "output format");
  args.add_flag("json", "shorthand for --export json");
  args.add_int("seed", seed_default, "world seed");
}

std::string unified_export(const ArgParser& args) {
  if (args.get_flag("json")) return "json";
  return args.get_string("export");
}

void add_world_flags(ArgParser& args) {
  args.add_string("exec", "cooperative",
                  "rank execution backend: "
                  "cooperative[:workers=N,stack=KB] | threads");
  args.add_string("match", "hashed",
                  "message-matching engine: hashed | legacy");
}

}  // namespace mpisect::support
