/* Compiled helpers for ryprep: the control-subspace simulator kernel, the
   P2 raster decoder and the state-JSON writer.  Each has a NumPy fallback
   in the package, used when this module cannot be imported, which is also
   its reference in the tests.

   run_gates(amps, kind, target, cmask, angle) applies a whole circuit, given
   as four equal-length columns, to a float64 statevector in place:

     kind    uint8    0 for Ry, 1 for X
     target  int32    target qubit
     cmask   uint64   bit q set when qubit q is a control
     angle   float64  Ry angle (ignored for X)

   Every argument is read through the buffer protocol and must be a
   C-contiguous one-dimensional buffer of that type.  All gates are checked
   before any amplitude is written, so a bad argument raises ValueError and
   leaves amps as it was.

   A gate pairs index i0 (target bit clear, every control bit set) with
   i1 = i0 | 2**target.  The loop visits only that control subspace: sub
   runs over the submasks of free = (2**n - 1) & ~cmask & ~2**target with
   the step sub = (sub - free) & free, and i0 = sub | cmask.  The Ry update
   uses the same floating-point operations, in the same order, as the NumPy
   kernel (simulator._apply_inplace), so the two agree bit for bit as long
   as the compiler contracts no multiply-add into an FMA: build with
   -ffp-contract=off.

   p2_samples(rest, out) fills the int32 buffer out with the first len(out)
   samples of a P2 raster, the bytes after the maxval token with encoding's
   comments blanked, in one pass over the bytes, and returns True.  Each
   sample is one to five ASCII digits, and runs of the six whitespace bytes
   come before and between them.  It returns False, for the token walk in
   encoding.load_pgm to decide, where a byte that is neither whitespace nor
   a digit comes before the end of the last sample, a token has more than
   five digits, or rest holds fewer than len(out) tokens.  Nothing past the
   byte that ends the last sample is read.  encoding._p2_samples is the
   fallback.

   state_json(n_qubits, values, index, write) writes the state document
   {"n_qubits": N, "amplitudes": [a0, a1, ...]}, byte for byte what
   json.dumps writes (states._state_json_numpy is the fallback), for the
   amplitudes values[index[0]], values[index[1]], ...: a table of values and
   an index into it, such as encode's palette and pixel index, or the
   distinct amplitudes of any other state.  values is a C-contiguous
   one-dimensional float64 buffer of finite values, used or not; index is a
   C-contiguous one-dimensional uint32 buffer of fewer than 2**32 entries,
   each below len(values).  write, a buffered binary file's write method or
   any callable that takes all of each piece or raises, gets the document in
   pieces of at most CHUNK bytes, each a memoryview of one private bytearray
   that is released when write returns.  RealState.write_json streams a
   state to a file this way, and RealState.to_json joins the pieces.

   Each value has a record, its text formatted as float.__repr__ formats it:
   by short_repr, or else by PyOS_double_to_string(x, 'r', 0,
   Py_DTSF_ADD_DOT_0, NULL), the call float.__repr__ makes.  The document is
   built in passes.  A hint pass over index marks each value it uses, in a
   private array of one byte per value; a palette of at most one value per
   HINT_SPAN entries is marked whole instead.  One pass over values reads
   each value once, refuses any that is not finite, and formats with
   short_repr the marked ones, in value order.  It calls no Python API.
   From SPLIT_AT values on, such as a 16-bit palette's 65,536, it releases
   the GIL, and the upper half runs on a second thread while the calling
   thread reads the lower half; the call joins that thread before it goes
   on.  Each half stops at its first value that is not
   finite, and the lower half's is reported before the upper half's, so the
   call names the lowest, as one pass would.  A value that the pass does
   not format, being unmarked or declined by short_repr, is staged: its
   bits go into its record, whose length is 0.  The emitting pass, holding
   the GIL, reads each index entry once, checks it, formats a staged value
   at its first use, with PyOS_double_to_string where short_repr declines
   it, and copies its record to the chunk.  So a call takes 33 bytes per
   value plus the chunk, whatever the number of amplitudes, and at most one
   thread besides its own.  A thread that changes values or index during
   the call, such as a NumPy ufunc running without the GIL or a write call,
   cannot make the document inconsistent: it holds each entry as the
   emitting pass read it and each value as the values pass read it.

   short_repr writes the text of most amplitudes itself, in exact 128-bit
   integer arithmetic, and leaves the rest to PyOS_double_to_string.  A
   normal x = m * 2**e whose significand m is not 2**52 reads back from
   every decimal closer to it than half an ulp, 2**(e-1), on either side.
   That interval is narrower than the gap between 15-digit decimals, so it
   holds at most one of them: if the correctly rounded 15-digit value lies
   inside, it is the shortest decimal that reads back as x and the only one
   of its length.  Otherwise the correctly rounded 16-digit value, if
   inside, is the closest of the shortest, and else the correctly rounded
   17-digit value, which always lies inside.  That is what dtoa's mode 0,
   and so float.__repr__, returns.  With s = 16 - floor(log10 x) and
   t = -(s + e), x * 10**s = N / 2**t for N = m * 5**s, which fits 128 bits
   for s <= 32; q = N >> t has 17 digits and r = N mod 2**t is the rest.  A
   p-digit candidate at distance dist from x * 10**s, in units of 2**-t,
   reads back as x iff 2 * dist < 5**s (2 * dist is even and 5**s odd, so
   they are never equal).  It defers for zero, subnormals and a significand
   of 2**52 (whose interval is not symmetric), for s outside [0, 32] or t
   outside [1, 110] (so that every product fits), and for an exact tie when
   rounding to p digits; so it answers only for 2**-53 <= |x| < 2**51.  The
   three tries are inlined with constant divisors.  Before the exact 15- and
   16-digit tries, a check in 64 bits skips a candidate that cannot read
   back: the distance of q from a multiple of the unit in whole units of q,
   min(rem, unit - 1 - rem) for rem = q mod unit, is at most the exact
   distance, so where it is at least hq = (5**s >> (t + 1)) + 1, which
   exceeds the half ulp 5**s / 2**(t + 1), so is the exact distance.  The
   check skips no tie (rem = unit / 2), which still defers.  Most 17-digit
   values skip both exact tries.  The 16 digits after the first are written
   two at a time, in two independent halves, and copied with copies of
   fixed size.  The nonzero amplitudes of an image state lie in about
   [1.9e-9, 1]; of those, only a power of two, such as the 1.0 of a single
   lit pixel, defers. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Same cap as ryprep.simulator.MAX_QUBITS. */
#define MAX_QUBITS 26

enum { KIND_RY = 0, KIND_X = 1 };

/* One argument's buffer, checked for item type, shape and layout. */
static int
get_column(PyObject *obj, Py_buffer *view, const char *func, const char *name,
           const char *formats, Py_ssize_t itemsize, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        return -1;
    }
    /* an exporter may leave format NULL, which means unsigned bytes */
    const char *fmt = view->format != NULL ? view->format : "B";
    if (fmt[0] == '@' || fmt[0] == '=') {
        fmt++;
    }
    const char *why = NULL;
    if (view->ndim != 1) {
        why = "must be one-dimensional";
    }
    else if (view->itemsize != itemsize || fmt[0] == '\0' || fmt[1] != '\0' ||
             strchr(formats, fmt[0]) == NULL) {
        why = "has the wrong item type";
    }
    else if (!PyBuffer_IsContiguous(view, 'C')) {
        why = "must be C-contiguous";
    }
    else if (writable && view->readonly) {
        why = "must be writable";
    }
    if (why != NULL) {
        PyErr_Format(PyExc_ValueError, "%s: %s %s (format %s, itemsize %zd)", func, name, why,
                     view->format != NULL ? view->format : "B", view->itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static void
apply_gates(double *amps, uint64_t dim, Py_ssize_t count, const uint8_t *kind,
            const int32_t *target, const uint64_t *cmask, const double *angle)
{
    for (Py_ssize_t g = 0; g < count; g++) {
        const uint64_t tbit = (uint64_t)1 << target[g];
        const uint64_t ctrl = cmask[g];
        const uint64_t free = (dim - 1) & ~ctrl & ~tbit;
        uint64_t sub = 0;
        if (kind[g] == KIND_RY) {
            const double half = 0.5 * angle[g];
            const double c = cos(half), s = sin(half);
            do {
                const uint64_t i0 = sub | ctrl, i1 = i0 | tbit;
                const double a0 = amps[i0], a1 = amps[i1];
                amps[i0] = c * a0 - s * a1;
                amps[i1] = s * a0 + c * a1;
                sub = (sub - free) & free;
            } while (sub != 0);
        }
        else {
            do {
                const uint64_t i0 = sub | ctrl, i1 = i0 | tbit;
                const double a0 = amps[i0];
                amps[i0] = amps[i1];
                amps[i1] = a0;
                sub = (sub - free) & free;
            } while (sub != 0);
        }
    }
}

/* Every gate fits an n-qubit register: a known kind, 0 <= target < n, and
   controls below 2**n that leave the target bit clear. */
static int
check_gates(int n, Py_ssize_t count, const uint8_t *kind, const int32_t *target,
            const uint64_t *cmask)
{
    const uint64_t dim = (uint64_t)1 << n;
    for (Py_ssize_t g = 0; g < count; g++) {
        if (kind[g] != KIND_RY && kind[g] != KIND_X) {
            PyErr_Format(PyExc_ValueError, "run_gates: gate %zd has unknown kind %d", g,
                         (int)kind[g]);
            return -1;
        }
        if (target[g] < 0 || target[g] >= n) {
            PyErr_Format(PyExc_ValueError, "run_gates: gate %zd targets qubit %d of %d", g,
                         (int)target[g], n);
            return -1;
        }
        if (cmask[g] >= dim || (cmask[g] >> target[g]) & 1) {
            PyErr_Format(PyExc_ValueError,
                         "run_gates: gate %zd has control mask %llu, which does not fit %d "
                         "qubits without qubit %d",
                         g, (unsigned long long)cmask[g], n, (int)target[g]);
            return -1;
        }
    }
    return 0;
}

static PyObject *
run_gates(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *objs[5];
    if (!PyArg_UnpackTuple(args, "run_gates", 5, 5, &objs[0], &objs[1], &objs[2], &objs[3],
                           &objs[4])) {
        return NULL;
    }
    static const char *const names[5] = {"amps", "kind", "target", "cmask", "angle"};
    static const char *const formats[5] = {"d", "B", "i", "QL", "d"};
    static const Py_ssize_t itemsizes[5] = {8, 1, 4, 8, 8};
    Py_buffer views[5];
    int held = 0;
    PyObject *result = NULL;

    for (; held < 5; held++) {
        if (get_column(objs[held], &views[held], "run_gates", names[held], formats[held],
                       itemsizes[held], held == 0) < 0) {
            goto done;
        }
    }
    const Py_ssize_t size = views[0].shape[0];
    const Py_ssize_t count = views[1].shape[0];
    const char *amps_lo = views[0].buf, *amps_hi = amps_lo + views[0].len;
    for (int k = 1; k < 5; k++) {
        if (views[k].shape[0] != count) {
            PyErr_Format(PyExc_ValueError,
                         "run_gates: the gate columns differ in length (kind %zd, %s %zd)",
                         count, names[k], views[k].shape[0]);
            goto done;
        }
        /* a column that shares memory with amps could change under the loop
           after it was checked */
        const char *lo = views[k].buf, *hi = lo + views[k].len;
        if (lo < amps_hi && amps_lo < hi) {
            PyErr_Format(PyExc_ValueError, "run_gates: %s shares memory with amps", names[k]);
            goto done;
        }
    }
    int n = 0;
    while (n <= MAX_QUBITS && ((Py_ssize_t)1 << n) < size) {
        n++;
    }
    if (n < 1 || n > MAX_QUBITS || ((Py_ssize_t)1 << n) != size) {
        PyErr_Format(PyExc_ValueError,
                     "run_gates: amps holds %zd values, not 2**n for some n in 1..%d", size,
                     MAX_QUBITS);
        goto done;
    }
    const uint8_t *kind = views[1].buf;
    const int32_t *target = views[2].buf;
    const uint64_t *cmask = views[3].buf;
    if (check_gates(n, count, kind, target, cmask) < 0) {
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    apply_gates(views[0].buf, (uint64_t)size, count, kind, target, cmask, views[4].buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return result;
}

/* The six bytes bytes.split takes for whitespace, as the PGM header does. */
static inline int
is_space(unsigned char c)
{
    return c == ' ' || (unsigned)(c - '\t') <= '\r' - '\t';
}

/* Reads count samples of a comment-blanked P2 raster into out; 0 where the
   token walk must decide instead. */
static int
decode_p2(const unsigned char *p, const unsigned char *end, int32_t *out, Py_ssize_t count)
{
    for (Py_ssize_t k = 0; k < count; k++) {
        while (p < end && is_space(*p)) {
            p++;
        }
        const unsigned char *start = p, *stop = end - p > 5 ? p + 5 : end;
        int32_t value = 0;
        while (p < stop && (unsigned)(*p - '0') <= 9) {
            value = value * 10 + (*p++ - '0');
        }
        /* no digit here (the bytes ended, or another byte), or a sixth digit
           or another byte before the next whitespace: left to the walk */
        if (p == start || (p < end && !is_space(*p))) {
            return 0;
        }
        out[k] = value;
    }
    return 1;
}

static PyObject *
p2_samples(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rest_obj, *out_obj;
    if (!PyArg_UnpackTuple(args, "p2_samples", 2, 2, &rest_obj, &out_obj)) {
        return NULL;
    }
    Py_buffer rest, out;
    if (get_column(rest_obj, &rest, "p2_samples", "rest", "B", 1, 0) < 0) {
        return NULL;
    }
    if (get_column(out_obj, &out, "p2_samples", "out", "il", 4, 1) < 0) {
        PyBuffer_Release(&rest);
        return NULL;
    }
    const unsigned char *bytes = rest.buf;
    int ok;
    Py_BEGIN_ALLOW_THREADS
    ok = decode_p2(bytes, bytes + rest.len, out.buf, out.shape[0]);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&out);
    PyBuffer_Release(&rest);
    return PyBool_FromLong(ok);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

/* pow5[s] = 5**s, filled by the module's init */
static u128 pow5[33];

/* Sets *n = m * 5**s, so that x = m * 2**e times 10**s is *n / 2**t for
   t = -(s + e), and returns t; returns 0 where s or t is out of range. */
static int
scale(uint64_t m, int e, int s, u128 *n)
{
    const int t = -(s + e);
    if (s < 0 || s > 32 || t < 1 || t > 110) {
        return 0;
    }
    *n = (u128)m * pow5[s];
    return t;
}

/* Rounds q + r / 2**t to the nearest multiple of unit, into *rounded;
   returns 1 where that reads back as x, whose half ulp times 10**s is
   five_s / 2 in units of 2**-t, 0 where it does not, and -1 for an exact
   tie.  Inlined with a constant unit, so that no division is left. */
static inline int
round_to(uint64_t q, u128 r, int t, uint64_t unit, u128 five_s, uint64_t *rounded)
{
    const uint64_t rem = q % unit;
    const u128 below = (u128)rem << t | r; /* x * 10**s above q - rem */
    const u128 above = ((u128)unit << t) - below;
    if (below == above) {
        return -1;
    }
    const u128 dist = below < above ? below : above;
    *rounded = q - rem + (below > above ? unit : 0);
    return 2 * dist < five_s;
}

/* round_to, after a check in 64 bits that answers 0 for most candidates
   without the 128-bit arithmetic: where q is at least hq whole units of q
   from both multiples of unit, beside it, and cannot be a tie. */
static inline int
try_round(uint64_t q, u128 r, int t, uint64_t unit, u128 five_s, uint64_t hq, uint64_t *rounded)
{
    const uint64_t rem = q % unit;
    const uint64_t whole = rem < unit - 1 - rem ? rem : unit - 1 - rem;
    if (whole >= hq && rem != unit / 2) {
        return 0;
    }
    return round_to(q, r, t, unit, five_s, rounded);
}

/* "00", "01", ..., "99" */
static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233"
                            "34353637383940414243444546474849505152535455565758596061626364656667"
                            "6869707172737475767778798081828384858687888990919293949596979899";

/* Writes h < 10**8 as eight digits, two at a time. */
static inline void
put8(char *out, uint32_t h)
{
    const uint32_t hi = h / 10000, lo = h % 10000;
    memcpy(out, pairs + 2 * (hi / 100), 2);
    memcpy(out + 2, pairs + 2 * (hi % 100), 2);
    memcpy(out + 4, pairs + 2 * (lo / 100), 2);
    memcpy(out + 6, pairs + 2 * (lo % 100), 2);
}

/* Writes float.__repr__(x) to out, at most 23 characters without a
   terminating NUL, and returns its length; returns 0, writing nothing
   useful, where the rule in the header does not certify x. */
static int
short_repr(double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)(bits >> 52 & 0x7FF);
    const uint64_t fraction = bits & ((1ULL << 52) - 1);
    if (biased == 0 || fraction == 0) {
        return 0;
    }
    const uint64_t m = fraction | 1ULL << 52;
    const int e = biased - 1075;
    /* x is in [2**e2, 2**(e2 + 1)), so floor(log10 x) is exp10 or
       exp10 + 1 for exp10 = floor(e2 * log10(2)), which this product gives
       exactly for |e2| < 1650 */
    const int e2 = biased - 1023;
    const int exp10 = e2 >= 0 ? (e2 * 78913) >> 18 : -((-e2 * 78913 + (1 << 18) - 1) >> 18);
    int s = 16 - exp10;
    u128 n = 0;
    int t = scale(m, e, s, &n);
    if (t != 0 && n >> t >= TEN17) {
        /* floor(log10 x) is exp10 + 1 */
        t = scale(m, e, --s, &n);
    }
    if (t == 0) {
        return 0;
    }
    /* 10**16 <= q < 10**17 */
    const uint64_t q = (uint64_t)(n >> t);
    const u128 r = n & (((u128)1 << t) - 1);
    /* the 15-, 16- and 17-digit roundings of x * 10**s, tried in turn; a
       candidate hq or more whole units of q away lies past the half ulp,
       pow5[s] / 2**(t + 1) units, and cannot read back */
    const uint64_t hq = (uint64_t)(pow5[s] >> (t + 1)) + 1;
    uint64_t digits = 0;
    int len = 15;
    int fits = try_round(q, r, t, 100, pow5[s], hq, &digits);
    if (fits == 0) {
        len = 16;
        fits = try_round(q, r, t, 10, pow5[s], hq, &digits);
    }
    if (fits == 0) {
        len = 17;
        fits = round_to(q, r, t, 1, pow5[s], &digits);
    }
    if (fits != 1) {
        return 0;
    }
    /* x is 0.ddd * 10**decpt for the 17 digits ddd of digits, which a
       carry can round up to 10**17 */
    int decpt = 17 - s;
    if (digits == TEN17) {
        digits = TEN17 / 10;
        decpt++;
    }
    char d[17];
    const uint64_t rest = digits % TEN16;
    d[0] = (char)('0' + digits / TEN16);
    put8(d + 1, (uint32_t)(rest / 100000000));
    put8(d + 9, (uint32_t)(rest % 100000000));
    /* the rounding to len digits left zeros after them */
    while (d[len - 1] == '0') {
        len--;
    }
    /* the copies of fixed size below write past the text, at most to
       out[22], which the caller's 30 bytes hold */
    char *o = out;
    if (bits >> 63) {
        *o++ = '-';
    }
    if (decpt <= -4 || decpt > 16) {
        o[0] = d[0];
        o[1] = '.';
        memcpy(o + 2, d + 1, 16);
        /* without the point where there is one digit */
        o += len > 1 ? len + 1 : 1;
        /* two digits, since 2**-53 <= x < 2**51 here */
        const int exponent = decpt - 1;
        *o++ = 'e';
        *o++ = exponent < 0 ? '-' : '+';
        memcpy(o, pairs + 2 * abs(exponent), 2);
        o += 2;
    }
    else if (decpt <= 0) {
        memcpy(o, "0.000", 5);
        o += 2 - decpt;
        memcpy(o, d, 17);
        o += len;
    }
    else if (decpt < len) {
        memcpy(o, d, (size_t)decpt);
        o += decpt;
        *o++ = '.';
        memcpy(o, d + decpt, (size_t)(len - decpt));
        o += len - decpt;
    }
    else {
        memcpy(o, d, (size_t)len);
        o += len;
        memset(o, '0', (size_t)(decpt - len));
        o += decpt - len;
        memcpy(o, ".0", 2);
        o += 2;
    }
    return (int)(o - out);
}

static void
init_short_repr(void)
{
    pow5[0] = 1;
    for (int s = 1; s < 33; s++) {
        pow5[s] = 5 * pow5[s - 1];
    }
}
#else
/* without 128-bit integers every value goes to PyOS_double_to_string */
static int
short_repr(double x, char *out)
{
    (void)x;
    (void)out;
    return 0;
}

static void
init_short_repr(void)
{
}
#endif

/* The texts of the values.  Each value has a record of RECORD bytes: the
   separator ", ", the float's repr (at most 23 characters from short_repr,
   17 digits, a sign, a point and an exponent such as e-16, or 24 from
   PyOS_double_to_string, whose exponent can be e-308), and in its last
   byte the length of both together, at most TEXT_MAX, so that the writer
   can copy every record whole.  A value that the values pass does not
   format, being unmarked or declined by short_repr, is staged: its
   record's last byte is 0 and bytes STAGED..STAGED+7 hold the value's
   bits, so that values is read once. */
#define RECORD 32
#define STAGED 8
#define TEXT_MAX 26
#define EXPONENT_BITS 0x7FF0000000000000ULL
/* the streamed document goes to write in pieces of at most this many bytes */
#define CHUNK 65536
/* Formatting one value on one thread takes about as long as marking 25 to
   70 index entries in the hint pass (35-49 ns against 0.7-1.4 ns, for the
   values of a 16-bit palette and a smooth or a random index, on a 2-vCPU
   Xeon VM), so a palette of at most one value per HINT_SPAN entries is
   formatted whole. */
#define HINT_SPAN 64
/* A values pass over at least this many values, such as a 16-bit palette,
   runs in two halves on two threads; an 8-bit palette's 256 stay on one.
   Without 128-bit integers the pass only stages bits, so it never splits. */
#ifdef __SIZEOF_INT128__
#define SPLIT_AT 8192
#else
#define SPLIT_AT PY_SSIZE_T_MAX
#endif

/* Formats x into record; returns -1 with an exception set. */
static int
format_record(char *record, double x)
{
    record[0] = ',';
    record[1] = ' ';
    size_t len = (size_t)short_repr(x, record + 2);
    if (len == 0) {
        char *text = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (text == NULL) {
            return -1;
        }
        len = strlen(text);
        memcpy(record + 2, text, len);
        PyMem_Free(text);
    }
    record[RECORD - 1] = (char)(2 + len);
    return 0;
}

static int
past_the_values(Py_ssize_t i, uint32_t v, Py_ssize_t count)
{
    PyErr_Format(PyExc_ValueError, "state_json: index[%zd] is %lu, past the %zd values", i,
                 (unsigned long)v, count);
    return -1;
}

/* The hint pass: sets used[v] to 1 for each entry v of index; returns -1
   with an exception set at the first entry not below count. */
static int
mark_used(unsigned char *used, Py_ssize_t count, const uint32_t *index, Py_ssize_t size)
{
    for (Py_ssize_t i = 0; i < size; i++) {
        const uint32_t v = index[i];
        if ((Py_ssize_t)v >= count) {
            return past_the_values(i, v, count);
        }
        used[v] = 1;
    }
    return 0;
}

/* One range lo..hi - 1 of the values pass, which calls no Python API, so
   that a large palette's runs without the GIL, in two halves on two
   threads: formats each value that used marks and short_repr answers for
   into its record, and stages the bits of every other, with a record
   length of 0, for record_of to format.  range->bad is set to the first
   value that is not finite, where the range stops, or to -1. */
typedef struct {
    char *records;
    const unsigned char *used;
    const double *values;
    Py_ssize_t lo, hi, bad;
} Range;

static void *
read_values(void *arg)
{
    Range *range = arg;
    range->bad = -1;
    for (Py_ssize_t v = range->lo; v < range->hi; v++) {
        uint64_t bits;
        memcpy(&bits, &range->values[v], sizeof bits);
        if ((bits & EXPONENT_BITS) == EXPONENT_BITS) {
            range->bad = v;
            break;
        }
        char *record = range->records + RECORD * (size_t)v;
        int len = 0;
        if (range->used[v]) {
            double x;
            memcpy(&x, &bits, sizeof x);
            len = short_repr(x, record + 2);
        }
        if (len != 0) {
            record[0] = ',';
            record[1] = ' ';
            record[RECORD - 1] = (char)(2 + len);
        }
        else {
            memcpy(&record[STAGED], &bits, sizeof bits);
            record[RECORD - 1] = 0;
        }
    }
    return NULL;
}

/* The values pass over all count values.  Below SPLIT_AT values it runs
   on this thread and keeps the GIL: it takes microseconds, and a thread
   that took the GIL meanwhile would keep this one waiting for it (beside
   a busy Python thread, a call on 256 values took 0.125 ms that way, and
   0.022 ms keeping the GIL).  From SPLIT_AT on it releases the GIL and
   runs the upper half on a thread of its own while this one reads the
   lower half, or the whole range here where the thread cannot be made.
   Returns the first value that is not finite, or -1. */
static Py_ssize_t
read_all_values(char *records, const unsigned char *used, const double *values,
                Py_ssize_t count)
{
    Range lower = {records, used, values, 0, count, -1};
    Range upper = {records, used, values, count / 2, count, -1};
    if (count < SPLIT_AT) {
        read_values(&lower);
        return lower.bad;
    }
    pthread_t thread;
    int split;
    Py_BEGIN_ALLOW_THREADS
    split = pthread_create(&thread, NULL, read_values, &upper) == 0;
    if (split) {
        lower.hi = upper.lo;
    }
    read_values(&lower);
    if (split) {
        pthread_join(thread, NULL);
    }
    Py_END_ALLOW_THREADS
    return lower.bad >= 0 ? lower.bad : upper.bad;
}

/* Where the document goes: the bytes start..end of a bytearray chunk,
   handed to write, through view, when it is full. */
typedef struct {
    char *start, *out, *end;
    PyObject *write, *view;
} Sink;

/* Hands the bytes written to the chunk to write, as one memoryview, and
   empties the chunk; returns -1 with an exception set.  write takes the
   whole piece or raises, as a buffered file's write does, so what it
   returns is not looked at.  The piece is released when write returns, so
   that a write that keeps it, to read it after the chunk is refilled, fails
   rather than reads other bytes. */
static int
flush(Sink *sink)
{
    PyObject *piece = PySequence_GetSlice(sink->view, 0, sink->out - sink->start);
    if (piece == NULL) {
        return -1;
    }
    PyObject *res = PyObject_CallOneArg(sink->write, piece);
    if (res != NULL) {
        Py_DECREF(res);
        res = PyObject_CallMethod(piece, "release", NULL);
    }
    Py_DECREF(piece);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    sink->out = sink->start;
    return 0;
}

/* The record of entry i of index, formatted now if the hint pass missed its
   value (another thread has changed index since); NULL with an exception
   set where the entry is not below count. */
static inline char *
record_of(char *records, Py_ssize_t count, const uint32_t *index, Py_ssize_t i)
{
    const uint32_t v = index[i];
    if ((Py_ssize_t)v >= count) {
        past_the_values(i, v, count);
        return NULL;
    }
    char *record = records + RECORD * (size_t)v;
    if (record[RECORD - 1] == 0) {
        double x;
        memcpy(&x, &record[STAGED], sizeof x);
        if (format_record(record, x) < 0) {
            return NULL;
        }
    }
    return record;
}

/* Copies the records of entries i..stop - 1 of index to out, which has
   room for each of them at TEXT_MAX bytes and RECORD bytes more, and
   returns the end of the last; NULL with an exception set. */
static char *
copy_records(char *out, char *records, Py_ssize_t count, const uint32_t *index, Py_ssize_t i,
             Py_ssize_t stop)
{
    for (; i < stop; i++) {
        const char *record = record_of(records, count, index, i);
        if (record == NULL) {
            return NULL;
        }
        /* a copy of fixed size, which compiles to a few moves; the bytes
           past the record's length are overwritten by what follows */
        memcpy(out, record, RECORD);
        out += (unsigned char)record[RECORD - 1];
    }
    return out;
}

/* The emitting pass: reads each entry of index once, checks it, and
   appends its record to the sink, the first without its separator;
   returns -1 with an exception set.  Runs of entries are copied whole
   while the sink has room for them at their longest, and the rest one by
   one. */
static int
emit(Sink *sink, char *records, Py_ssize_t count, const uint32_t *index, Py_ssize_t size)
{
    Py_ssize_t i = 0;
    while (i < size) {
        const Py_ssize_t fit = (sink->end - sink->out - RECORD) / TEXT_MAX;
        if (i > 0 && fit > 0) {
            const Py_ssize_t stop = size - i < fit ? size : i + fit;
            sink->out = copy_records(sink->out, records, count, index, i, stop);
            if (sink->out == NULL) {
                return -1;
            }
            i = stop;
            continue;
        }
        const char *record = record_of(records, count, index, i);
        if (record == NULL) {
            return -1;
        }
        const Py_ssize_t skip = i == 0 ? 2 : 0;
        const Py_ssize_t len = (unsigned char)record[RECORD - 1] - skip;
        if (sink->end - sink->out < len + 2 && flush(sink) < 0) {
            return -1;
        }
        memcpy(sink->out, record + skip, (size_t)len);
        sink->out += len;
        i++;
    }
    return 0;
}

static PyObject *
state_json(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n_qubits;
    PyObject *values_obj, *index_obj, *write;
    if (!PyArg_ParseTuple(args, "nOOO:state_json", &n_qubits, &values_obj, &index_obj, &write)) {
        return NULL;
    }
    if (!PyCallable_Check(write)) {
        PyErr_Format(PyExc_TypeError, "state_json: write must be callable, not %.100s",
                     Py_TYPE(write)->tp_name);
        return NULL;
    }
    Py_buffer values, index;
    if (get_column(values_obj, &values, "state_json", "values", "d", 8, 0) < 0) {
        return NULL;
    }
    if (get_column(index_obj, &index, "state_json", "index", "IL", 4, 0) < 0) {
        PyBuffer_Release(&values);
        return NULL;
    }
    PyObject *result = NULL, *chunk = NULL;
    Sink sink = {NULL, NULL, NULL, write, NULL};
    char *records = NULL;
    unsigned char *used = NULL;
    const Py_ssize_t count = values.shape[0], size = index.shape[0];
    if ((uint64_t)size > UINT32_MAX) {
        PyErr_Format(PyExc_ValueError, "state_json: index holds %zd entries, 2**32 or more", size);
        goto done;
    }
    records = PyMem_Malloc((size_t)count * RECORD);
    used = PyMem_Calloc((size_t)count, 1);
    if (records == NULL || used == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (count <= size / HINT_SPAN) {
        memset(used, 1, (size_t)count);
    }
    else if (mark_used(used, count, index.buf, size) < 0) {
        goto done;
    }
    const Py_ssize_t bad = read_all_values(records, used, values.buf, count);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError, "state_json: values[%zd] is not finite", bad);
        goto done;
    }
    chunk = PyByteArray_FromStringAndSize(NULL, CHUNK);
    if (chunk == NULL || (sink.view = PyMemoryView_FromObject(chunk)) == NULL) {
        goto done;
    }
    sink.start = PyByteArray_AS_STRING(chunk);
    sink.end = sink.start + CHUNK;
    sink.out = sink.start + PyOS_snprintf(sink.start, CHUNK,
                                          "{\"n_qubits\": %zd, \"amplitudes\": [", n_qubits);
    if (emit(&sink, records, count, index.buf, size) < 0) {
        goto done;
    }
    /* each record left room for these two bytes */
    memcpy(sink.out, "]}", 2);
    sink.out += 2;
    if (flush(&sink) == 0) {
        result = Py_NewRef(Py_None);
    }

done:
    Py_XDECREF(sink.view);
    Py_XDECREF(chunk);
    PyMem_Free(used);
    PyMem_Free(records);
    PyBuffer_Release(&index);
    PyBuffer_Release(&values);
    return result;
}

static PyObject *
short_repr_py(PyObject *Py_UNUSED(self), PyObject *arg)
{
    const double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    char text[32];
    const int len = short_repr(x, text);
    if (len == 0) {
        Py_RETURN_NONE;
    }
    return PyUnicode_FromStringAndSize(text, len);
}

static PyMethodDef methods[] = {
    {"run_gates", run_gates, METH_VARARGS,
     "run_gates(amps, kind, target, cmask, angle)\n--\n\n"
     "Apply the gates given by four equal-length columns (uint8 kind, 0 for Ry\n"
     "and 1 for X; int32 target; uint64 control mask; float64 angle) to the\n"
     "float64 statevector amps in place.  Raises ValueError, writing nothing,\n"
     "when a buffer or a gate does not fit."},
    {"state_json", state_json, METH_VARARGS,
     "state_json(n_qubits, values, index, write)\n--\n\n"
     "Hand the state document {\"n_qubits\": n_qubits, \"amplitudes\": [...]},\n"
     "byte for byte what json.dumps writes, for the amplitudes values[index],\n"
     "to write in pieces of at most 64 KiB, and return None.  Each piece is a\n"
     "memoryview, released when write returns; write must take all of it or\n"
     "raise, as a buffered binary file's write does, and what it returns is\n"
     "ignored.  The values that index uses are formatted in value order,\n"
     "from _SPLIT_AT values on without the GIL, in two halves on two\n"
     "threads, the second joined before write is first called; each value\n"
     "and each index entry is read once.  Memory is 33 bytes per value plus\n"
     "the 64 KiB piece.  Raises TypeError when write is not\n"
     "callable, ValueError when values is not a C-contiguous one-dimensional\n"
     "float64 buffer of finite values, or index not a C-contiguous\n"
     "one-dimensional uint32 buffer of fewer than 2**32 entries, each below\n"
     "len(values); and whatever write raises."},
    {"p2_samples", p2_samples, METH_VARARGS,
     "p2_samples(rest, out)\n--\n\n"
     "Fill the C-contiguous writable int32 buffer out with the first len(out)\n"
     "samples of the P2 raster rest, a bytes-like object whose comments are\n"
     "blanked, in one pass, and return True.  Return False, with out partly\n"
     "written, where a byte that is neither whitespace nor a digit comes before\n"
     "the end of the last sample, a sample has more than 5 digits, or rest\n"
     "holds fewer than len(out) samples.  Raises ValueError for a buffer of\n"
     "the wrong type, shape or layout."},
    {"_short_repr", short_repr_py, METH_O,
     "_short_repr(x)\n--\n\n"
     "repr(x) as state_json's own formatter writes it, or None where it\n"
     "leaves x to PyOS_double_to_string.  For tests."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ryprep._simkernel",
    .m_doc = "Compiled simulator kernel, P2 raster decoder and state-JSON writer for ryprep.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    init_short_repr();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "MAX_QUBITS", MAX_QUBITS) < 0 ||
                      PyModule_AddIntConstant(m, "_SPLIT_AT", SPLIT_AT) < 0)) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
