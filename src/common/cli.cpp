#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/assert.hpp"

namespace bwpart::cli {

void Parser::flag(std::string name, bool& target, std::string help) {
  add(std::move(name), "", std::move(help), [&target](std::string_view) {
    target = true;
    return std::string();
  });
}

void Parser::text(std::string name, std::string& target, std::string meta,
                  std::string help) {
  if (!target.empty()) help += " (default " + target + ")";
  add(std::move(name), std::move(meta), std::move(help),
      [&target](std::string_view v) {
        target = v;
        return std::string();
      });
}

void Parser::uint_list(std::string name, std::vector<std::uint64_t>& target,
                       std::uint64_t lo, std::uint64_t hi, std::string meta,
                       std::string help) {
  help += " [" + num(lo) + ", " + num(hi) + "] each";
  add(std::move(name), std::move(meta), std::move(help),
      [&target, lo, hi](std::string_view v) {
        std::vector<std::uint64_t> items;
        for (std::size_t begin = 0; begin <= v.size();) {
          const std::size_t comma = std::min(v.find(',', begin), v.size());
          const std::string problem = parse_number<std::uint64_t>(
              v.substr(begin, comma - begin), lo, hi, items.emplace_back());
          if (!problem.empty()) {
            return "item " + std::to_string(items.size()) + ": " + problem;
          }
          begin = comma + 1;
        }
        target = std::move(items);
        return std::string();
      });
}

std::string Parser::try_parse(std::span<const char* const> args) const {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    const Flag* f = find(arg);
    if (f == nullptr) {
      // A stray word right after a switch is a value given to the switch.
      const Flag* prev = i > 0 ? find(args[i - 1]) : nullptr;
      if (!arg.starts_with("--") && prev != nullptr && prev->meta.empty()) {
        return prev->name + ": a switch takes no value, got '" +
               std::string(arg) + "'";
      }
      return "unknown flag '" + std::string(arg) + "'";
    }
    if (f->meta.empty()) {
      f->assign({});
    } else if (i + 1 == args.size() ||
               std::string_view(args[i + 1]).starts_with("--")) {
      return f->name + ": missing value (" + f->meta + ")";
    } else if (std::string problem = f->assign(args[++i]); !problem.empty()) {
      return f->name + ": " + problem;
    }
  }
  return {};
}

void Parser::parse(int argc, const char* const* argv) const {
  const std::string problem = try_parse(
      {argv + 1, static_cast<std::size_t>(std::max(argc - 1, 0))});
  if (!problem.empty()) fail(problem);
}

void Parser::fail(std::string_view message) const {
  std::fprintf(stderr, "%s: %.*s\n%s", program_.c_str(),
               static_cast<int>(message.size()), message.data(),
               usage().c_str());
  std::exit(2);
}

std::string Parser::usage() const {
  const auto head = [](const Flag& f) {
    return f.meta.empty() ? f.name : f.name + " " + f.meta;
  };
  std::size_t width = 0;
  for (const Flag& f : flags_) width = std::max(width, head(f).size());
  std::string out = "usage: " + program_ + " [options]\n";
  for (const Flag& f : flags_) {
    const std::string h = head(f);
    out += "  " + h + std::string(width - h.size() + 2, ' ') + f.help + "\n";
  }
  return out;
}

void Parser::add(std::string name, std::string meta, std::string help,
                 std::function<std::string(std::string_view)> assign) {
  BWPART_ASSERT(name.starts_with("--") && find(name) == nullptr,
                "flags are unique and start with --");
  flags_.push_back(
      {std::move(name), std::move(meta), std::move(help), std::move(assign)});
}

const Parser::Flag* Parser::find(std::string_view name) const {
  const auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == flags_.end() ? nullptr : &*it;
}

}  // namespace bwpart::cli
