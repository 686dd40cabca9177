#include "isa/opcode.hh"

#include "common/strutil.hh"

namespace tsp {

bool
opcodeFromName(const std::string &name, Opcode &out)
{
    for (const OpRow &r : kOpTable) {
        if (iequals(name, r.name)) {
            out = r.op;
            return true;
        }
    }
    return false;
}

} // namespace tsp
