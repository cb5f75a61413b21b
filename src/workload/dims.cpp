#include "workload/dims.hpp"

#include "common/log.hpp"

namespace feather {

char
dimName(Dim d)
{
    switch (d) {
      case Dim::N: return 'N';
      case Dim::M: return 'M';
      case Dim::C: return 'C';
      case Dim::H: return 'H';
      case Dim::W: return 'W';
      case Dim::P: return 'P';
      case Dim::Q: return 'Q';
      case Dim::R: return 'R';
      case Dim::S: return 'S';
      case Dim::K: return 'K';
    }
    panic("unreachable dim");
}

std::optional<Dim>
parseDim(char c)
{
    switch (c) {
      case 'N': return Dim::N;
      case 'M': return Dim::M;
      case 'C': return Dim::C;
      case 'H': return Dim::H;
      case 'W': return Dim::W;
      case 'P': return Dim::P;
      case 'Q': return Dim::Q;
      case 'R': return Dim::R;
      case 'S': return Dim::S;
      case 'K': return Dim::K;
      default: return std::nullopt;
    }
}

std::string
toString(Dim d)
{
    return std::string(1, dimName(d));
}

} // namespace feather
