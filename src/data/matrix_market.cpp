#include "data/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace spbla::data {
namespace {

std::string lowercase(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

}  // namespace

Matrix load_matrix_market(std::istream& is) {
    std::string line;
    check(static_cast<bool>(std::getline(is, line)), Status::InvalidArgument,
          "matrix market: empty stream");

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    std::istringstream header{line};
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    check(lowercase(banner) == "%%matrixmarket", Status::InvalidArgument,
          "matrix market: missing %%MatrixMarket banner");
    check(lowercase(object) == "matrix", Status::InvalidArgument,
          "matrix market: only `matrix` objects supported");
    check(lowercase(format) == "coordinate", Status::InvalidArgument,
          "matrix market: only `coordinate` (sparse) format supported");
    field = lowercase(field);
    symmetry = lowercase(symmetry);
    check(field == "pattern" || field == "integer" || field == "real",
          Status::InvalidArgument, "matrix market: unsupported field type");
    check(symmetry == "general" || symmetry == "symmetric", Status::InvalidArgument,
          "matrix market: unsupported symmetry");

    // Skip comments, read the size line.
    while (std::getline(is, line)) {
        if (!line.empty() && line[0] != '%') break;
    }
    std::istringstream size_line{line};
    std::uint64_t nrows = 0, ncols = 0, nnz = 0;
    check(static_cast<bool>(size_line >> nrows >> ncols >> nnz), Status::InvalidArgument,
          "matrix market: malformed size line");
    check(nrows <= 0xFFFFFFFFull && ncols <= 0xFFFFFFFFull, Status::OutOfRange,
          "matrix market: shape exceeds Index range");
    // Both factors fit in 32 bits, so the cell count cannot overflow.
    check(nnz <= nrows * ncols, Status::OutOfRange,
          "matrix market: entry count exceeds the number of cells");

    // The header's count is a claim, not a size: reserve a bounded prefix and
    // let the entries actually read grow the vector.
    constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 16;
    std::vector<Coord> coords;
    coords.reserve(static_cast<std::size_t>(std::min(nnz, kMaxReserve)));
    for (std::uint64_t k = 0; k < nnz; ++k) {
        std::uint64_t r = 0, c = 0;
        check(static_cast<bool>(is >> r >> c), Status::InvalidArgument,
              "matrix market: truncated entry list");
        bool set = true;
        if (field != "pattern") {
            double value = 0.0;
            check(static_cast<bool>(is >> value), Status::InvalidArgument,
                  "matrix market: entry missing value");
            set = value != 0.0;
        }
        check(r >= 1 && c >= 1 && r <= nrows && c <= ncols, Status::OutOfRange,
              "matrix market: entry index out of bounds");
        if (!set) continue;
        const Coord coord{static_cast<Index>(r - 1), static_cast<Index>(c - 1)};
        coords.push_back(coord);
        if (symmetry == "symmetric" && coord.row != coord.col) {
            coords.push_back({coord.col, coord.row});
        }
    }
    return Matrix::from_coords(static_cast<Index>(nrows), static_cast<Index>(ncols),
                               std::move(coords));
}

void save_matrix_market(std::ostream& os, const Matrix& m) {
    os << "%%MatrixMarket matrix coordinate pattern general\n";
    os << "% written by spbla\n";
    os << m.nrows() << ' ' << m.ncols() << ' ' << m.nnz() << '\n';
    for (const auto& c : m.to_coords()) {
        os << (c.row + 1) << ' ' << (c.col + 1) << '\n';
    }
}

Matrix load_matrix_market_file(const std::string& path) {
    std::ifstream is{path};
    check(is.is_open(), Status::InvalidArgument,
          "load_matrix_market_file: cannot open " + path);
    return load_matrix_market(is);
}

void save_matrix_market_file(const std::string& path, const Matrix& m) {
    std::ofstream os{path};
    check(os.is_open(), Status::InvalidArgument,
          "save_matrix_market_file: cannot open " + path);
    save_matrix_market(os, m);
}

}  // namespace spbla::data
