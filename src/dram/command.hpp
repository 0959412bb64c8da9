// DRAM command vocabulary shared between the bank state machines, the
// channel engine and the memory controller.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "dram/address_map.hpp"

namespace bwpart::dram {

enum class CommandType : std::uint8_t {
  Activate,
  Read,       ///< column read, row stays open
  ReadAp,     ///< column read with auto-precharge (close-page policy)
  Write,
  WriteAp,
  Precharge,
  Refresh,    ///< all-bank refresh of one rank
};

constexpr bool is_column_command(CommandType t) {
  return t == CommandType::Read || t == CommandType::ReadAp ||
         t == CommandType::Write || t == CommandType::WriteAp;
}

constexpr bool is_read_command(CommandType t) {
  return t == CommandType::Read || t == CommandType::ReadAp;
}

constexpr bool is_write_command(CommandType t) {
  return t == CommandType::Write || t == CommandType::WriteAp;
}

/// The four classes the timing rules tell apart: a command with or without
/// auto-precharge obeys the same issue constraints. The values index the
/// engine's ready-tick tables, and are ordered so that the class a request
/// needs is `open + hit + (hit & is_write)` (see ReadyTicks).
enum class CmdClass : std::uint8_t {
  Activate = 0,
  Precharge = 1,
  Read = 2,
  Write = 3,
};
inline constexpr std::size_t kCmdClasses = 4;

constexpr bool is_column_class(CmdClass c) { return c >= CmdClass::Read; }

/// Class of an externally issued command. Refresh has none (it is internal
/// to the engine); callers handle it before asking.
constexpr CmdClass class_of(CommandType t) {
  switch (t) {
    case CommandType::Activate: return CmdClass::Activate;
    case CommandType::Read:
    case CommandType::ReadAp: return CmdClass::Read;
    case CommandType::Write:
    case CommandType::WriteAp: return CmdClass::Write;
    case CommandType::Precharge:
    case CommandType::Refresh: break;
  }
  return CmdClass::Precharge;
}

struct Command {
  CommandType type = CommandType::Activate;
  Location loc{};
  AppId app = kNoApp;        ///< originating application (for accounting)
  std::uint64_t req_id = 0;  ///< originating memory request id
};

constexpr const char* to_string(CommandType t) {
  switch (t) {
    case CommandType::Activate: return "ACT";
    case CommandType::Read: return "RD";
    case CommandType::ReadAp: return "RDA";
    case CommandType::Write: return "WR";
    case CommandType::WriteAp: return "WRA";
    case CommandType::Precharge: return "PRE";
    case CommandType::Refresh: return "REF";
  }
  return "?";
}

}  // namespace bwpart::dram
