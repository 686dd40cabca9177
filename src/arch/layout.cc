#include "arch/layout.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace tsp {

const char *
sliceKindName(SliceKind kind)
{
    switch (kind) {
      case SliceKind::ICU:
        return "ICU";
      case SliceKind::MEM:
        return "MEM";
      case SliceKind::VXM:
        return "VXM";
      case SliceKind::MXM:
        return "MXM";
      case SliceKind::SXM:
        return "SXM";
      case SliceKind::C2C:
        return "C2C";
    }
    return "?";
}

SlicePos
Layout::memPos(Hemisphere hem, int index)
{
    TSP_ASSERT(index >= 0 && index < kMemSlicesPerHem);
    if (hem == Hemisphere::East)
        return vxm + 1 + index;
    // West: MEM_W0 is adjacent to the VXM, increasing outward (west).
    return vxm - 1 - index;
}

std::string
Layout::posName(SlicePos pos)
{
    if (pos == c2cWest)
        return "C2C_W";
    if (pos == c2cEast)
        return "C2C_E";
    if (pos == mxmWest)
        return "MXM_W";
    if (pos == mxmEast)
        return "MXM_E";
    if (pos == sxmWest)
        return "SXM_W";
    if (pos == sxmEast)
        return "SXM_E";
    if (pos == vxm)
        return "VXM";
    if (pos > sxmWest && pos < vxm)
        return strformat("MEM_W%d", vxm - 1 - pos);
    if (pos > vxm && pos < sxmEast)
        return strformat("MEM_E%d", pos - vxm - 1);
    return strformat("X%d", pos);
}

IcuId
IcuId::mem(Hemisphere hem, int index)
{
    TSP_ASSERT(index >= 0 && index < kMemSlicesPerHem);
    const int base = hem == Hemisphere::West ? 0 : kMemSlicesPerHem;
    return IcuId{memBase + base + index};
}

IcuId
IcuId::vxmAlu(int alu)
{
    TSP_ASSERT(alu >= 0 && alu < kVxmAlusPerLane);
    return IcuId{vxmBase + alu};
}

IcuId
IcuId::mxm(int plane, bool weight_sequencer)
{
    TSP_ASSERT(plane >= 0 && plane < kMxmPlanes);
    return IcuId{mxmBase + plane * 2 + (weight_sequencer ? 0 : 1)};
}

IcuId
IcuId::sxm(Hemisphere hem, int unit)
{
    TSP_ASSERT(unit >= 0 && unit < 8);
    const int base = hem == Hemisphere::West ? 0 : 8;
    return IcuId{sxmBase + base + unit};
}

IcuId
IcuId::c2c(int link)
{
    TSP_ASSERT(link >= 0 && link < kC2cLinks);
    return IcuId{c2cBase + link};
}

SliceKind
IcuId::kind() const
{
    TSP_ASSERT(id >= 0 && id < kNumIcus);
    if (id < vxmBase)
        return SliceKind::MEM;
    if (id < mxmBase)
        return SliceKind::VXM;
    if (id < sxmBase)
        return SliceKind::MXM;
    if (id < c2cBase)
        return SliceKind::SXM;
    return SliceKind::C2C;
}

SlicePos
IcuId::pos() const
{
    switch (kind()) {
      case SliceKind::MEM: {
        const int rel = id - memBase;
        const Hemisphere hem =
            rel < kMemSlicesPerHem ? Hemisphere::West : Hemisphere::East;
        return Layout::memPos(hem, rel % kMemSlicesPerHem);
      }
      case SliceKind::VXM:
        return Layout::vxm;
      case SliceKind::MXM: {
        // Planes 0,1 are west; planes 2,3 east.
        const int plane = (id - mxmBase) / 2;
        return Layout::mxmPos(plane < 2 ? Hemisphere::West
                                        : Hemisphere::East);
      }
      case SliceKind::SXM: {
        const int rel = id - sxmBase;
        return Layout::sxmPos(rel < 8 ? Hemisphere::West
                                      : Hemisphere::East);
      }
      case SliceKind::C2C: {
        // Even links exit west, odd links east (modeling choice).
        const int link = id - c2cBase;
        return Layout::c2cPos(link % 2 == 0 ? Hemisphere::West
                                            : Hemisphere::East);
      }
      default:
        break;
    }
    panic("IcuId::pos: bad id %d", id);
}

std::string
IcuId::name() const
{
    switch (kind()) {
      case SliceKind::MEM: {
        const int rel = id - memBase;
        const bool west = rel < kMemSlicesPerHem;
        return strformat("MEM_%c%d", west ? 'W' : 'E',
                         rel % kMemSlicesPerHem);
      }
      case SliceKind::VXM:
        return strformat("VXM%d", id - vxmBase);
      case SliceKind::MXM: {
        const int rel = id - mxmBase;
        return strformat("MXM%d_%s", rel / 2, rel % 2 == 0 ? "W" : "A");
      }
      case SliceKind::SXM: {
        const int rel = id - sxmBase;
        const bool west = rel < 8;
        return strformat("SXM_%c_%s", west ? 'W' : 'E',
                         sxmUnitName(static_cast<SxmUnit>(rel % 8)));
      }
      case SliceKind::C2C:
        return strformat("C2C%d", id - c2cBase);
      default:
        break;
    }
    return "?";
}

const char *
sxmUnitName(SxmUnit unit)
{
    switch (unit) {
      case SxmUnit::ShiftNorth:
        return "SHN";
      case SxmUnit::ShiftSouth:
        return "SHS";
      case SxmUnit::Permute:
        return "PRM";
      case SxmUnit::Distribute:
        return "DST";
      case SxmUnit::Rotate:
        return "ROT";
      case SxmUnit::Transpose0:
        return "TR0";
      case SxmUnit::Transpose1:
        return "TR1";
      case SxmUnit::Select:
        return "SEL";
    }
    return "?";
}

} // namespace tsp
