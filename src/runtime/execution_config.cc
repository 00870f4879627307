#include "runtime/execution_config.hh"

#include <cctype>

namespace fpsa
{

const char *
executorKindName(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::Planned: return "planned";
      case ExecutorKind::Reference: return "reference";
      case ExecutorKind::Spiking: return "spiking";
    }
    return "?";
}

bool
parseExecutorKind(const std::string &name, ExecutorKind &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (ExecutorKind kind :
         {ExecutorKind::Planned, ExecutorKind::Reference,
          ExecutorKind::Spiking}) {
        if (lower == executorKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace fpsa
