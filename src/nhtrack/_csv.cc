/* CSV text of float64 tables; loaded by nhtrack.kernels.
 *
 * Each value is written exactly as Python's repr(float) writes it: the
 * shortest digit string that parses back to the same double (and of those,
 * the closest), from std::to_chars. Python lays those digits out
 * positionally when the decimal exponent is in -4..15, with ".0" on an
 * integral value, and as d.ddde+XX otherwise (a sign and at least two
 * exponent digits, which is also std::to_chars' scientific form). A NaN
 * is "nan" whatever its sign bit; infinities are "inf" and "-inf".
 *
 * The longest value is 24 characters ("-2.2250738585072014e-308"), so a
 * table of n values needs at most 25*n bytes with separators.
 */

#include <charconv>
#include <cmath>
#include <cstring>

#if __cplusplus < 201703L
#error "_csv.cc needs C++17 and a library with floating-point std::to_chars"
#endif

namespace {

char *copy(char *p, const char *text, std::size_t n)
{
    std::memcpy(p, text, n);
    return p + n;
}

/* Write x as repr(x) does; returns the end of the text. */
char *format_value(char *p, double x)
{
    if (std::isnan(x))
        return copy(p, "nan", 3);
    if (std::isinf(x))
        return x < 0 ? copy(p, "-inf", 4) : copy(p, "inf", 3);

    /* [-]d[.ddd]e(+|-)dd[d], shortest round-trip digits */
    char sci[32];
    char *end = std::to_chars(sci, sci + sizeof sci, x, std::chars_format::scientific).ptr;
    const char *s = sci;
    if (*s == '-')
        *p++ = *s++;
    char digits[17];
    int n = 0;
    const char *e = s;
    for (; *e != 'e'; ++e)
        if (*e != '.')
            digits[n++] = *e;
    int exp = 0;
    for (const char *c = e + 2; c < end; ++c)
        exp = 10 * exp + (*c - '0');
    if (e[1] == '-')
        exp = -exp;

    if (exp < -4 || exp > 15)
        return copy(p, s, end - s);
    if (exp < 0) {
        /* 0.000ddd */
        p = copy(p, "0.000", 1 - exp);
        return copy(p, digits, n);
    }
    if (n > exp + 1) {
        /* dd.ddd */
        p = copy(p, digits, exp + 1);
        *p++ = '.';
        return copy(p, digits + exp + 1, n - exp - 1);
    }
    /* dd00.0 */
    p = copy(p, digits, n);
    std::memset(p, '0', exp + 1 - n);
    p += exp + 1 - n;
    return copy(p, ".0", 2);
}

} // namespace

/* Format the C-contiguous (rows, cols) table as comma-separated lines, each
 * ended by '\n', into out (at least 25*rows*cols bytes); returns the number
 * of bytes written. */
extern "C" long nh_csv_format(const double *table, long rows, long cols, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; ++i)
        for (long j = 0; j < cols; ++j) {
            p = format_value(p, table[i * cols + j]);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    return p - out;
}
