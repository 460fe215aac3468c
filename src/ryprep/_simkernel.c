/* Compiled helpers for ryprep: the control-subspace simulator kernel, the
   P2 raster decoder, the state-JSON writer, and the circuit writers and
   reader.  Each has a NumPy fallback in the package, used when this module
   cannot be imported or lacks one of the helpers (ryprep._kernel binds them
   all or none), which is also its reference in the tests.

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
   kernel (simulator._run_gates_numpy), so the two agree bit for bit as long
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
   amplitudes values[index[0]], values[index[1]], ...: a table of finite
   float64 values, used or not, and a uint32 index into it of fewer than
   2**32 entries, such as encode's palette and pixel index.  write, a
   buffered binary file's write method or any callable that takes all of
   each piece or raises, gets the document in pieces of at most CHUNK
   bytes, each a memoryview of one private bytearray that is released when
   write returns.  RealState.write_json streams a state to a file this way,
   and RealState.to_json joins the pieces.

   Each value's text is formatted as float.__repr__ formats it, by
   short_repr or else by PyOS_double_to_string(x, 'r', 0,
   Py_DTSF_ADD_DOT_0, NULL), the call float.__repr__ makes, into a record
   of its own, in passes (mark_used, read_all_values, emit).  A hint pass
   marks the values that index uses; one pass over values reads each value
   once, refuses any that is not finite and formats the marked ones, with
   no Python API, and from SPLIT_AT values on without the GIL, on two
   threads; the emitting pass, holding the GIL, reads each index entry
   once, checks it and copies its value's record to the chunk.  So a call
   takes 33 bytes per value plus the chunk, whatever the number of
   amplitudes, and at most one thread besides its own.  A thread that
   changes values or index during the call, such as a NumPy ufunc running
   without the GIL or a write call, cannot make the document inconsistent:
   it holds each entry as the emitting pass read it and each value as the
   values pass read it.

   circuit_json(n_qubits, kind, target, cmask, angle, write) writes the
   circuit document {"n_qubits": N, "gates": [...]} of the gates in the four
   columns that run_gates takes, byte for byte what json.dumps writes for
   one {"kind", "angle" (Ry only), "target", "controls"} dict per gate
   (circuits._circuit_json_numpy is the fallback).  circuit_qasm, with the
   same arguments, writes the OpenQASM 3 text: the three header lines, then
   one line per gate, a "ctrl @ " per control, "ry(angle)" or "x", and the
   operands q[c], ..., q[target] (qasm._circuit_qasm_numpy is the
   fallback).  The controls are the set bits of the row's mask, in
   ascending order, and each Ry angle is formatted as state_json formats a
   value.  Both check the columns as run_gates does, for 1..MASK_BITS
   qubits, and every Ry angle for being finite, before write is first
   called, and format each row straight into the chunk that write gets.
   Circuit.write_json and qasm.write_qasm stream a circuit to a file this
   way, and Circuit.to_json and export_qasm join the pieces.

   circuit_columns(text) reads back what circuit_json writes, taking the
   pieces that it puts: where text, an ASCII str, is that layout for
   1..MASK_BITS qubits, then nothing but JSON whitespace (the CLI ends its
   file with a newline), it returns (n_qubits, kind, target, cmask, angle),
   the four columns as bytes, which np.frombuffer wraps read-only.  For any
   other text it returns None, and Circuit.from_json reads that through
   json, as before, so every refusal keeps its class and message.  Its
   rules for indices, controls and angles (take_index, take_row,
   take_angle) make it return columns only where json, header and
   circuits._read_rows would give the same ones.  The columns are allocated
   for len(text) / ROW_MIN rows, the most the text can hold, and shrunk to
   the rows read: their size follows from the length of the text, never
   from a number in it.  Each piece of a document is defined once, as
   JSON_N_QUBITS and the rest, and _Static_asserts check each buffer bound
   against the pieces, so that a layout that breaks a bound stops the build.

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
   rounding to p digits; so it answers only for 2**-53 <= |x| < 2**51.
   Before the exact 15- and 16-digit tries, a check in 64 bits skips a
   candidate that cannot read back: the distance of q from a multiple of
   the unit in whole units of q, min(rem, unit - 1 - rem) for
   rem = q mod unit, is at most the exact distance, so where it is at least
   hq = (5**s >> (t + 1)) + 1, which exceeds the half ulp
   5**s / 2**(t + 1), so is the exact distance.  The check skips no tie
   (rem = unit / 2), which still defers.  Most 17-digit values skip both
   exact tries.  The nonzero amplitudes of an image state lie in about
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

/* The register width of the columns: a control mask holds a bit per qubit. */
#define MASK_BITS 64
_Static_assert(MASK_BITS == 8 * sizeof(uint64_t), "a control mask is not a uint64_t");
_Static_assert(MASK_BITS <= 100, "a qubit index has more than the two digits of put_qubit");

/* The pieces of the JSON documents: JSON_SEP separates amplitudes, rows
   and controls, and JSON_CLOSE ends a row or a document. */
#define JSON_N_QUBITS "{\"n_qubits\": "
#define JSON_GATES ", \"gates\": ["
#define JSON_RY "{\"kind\": \"ry\", \"angle\": "
#define JSON_TARGET ", \"target\": "
#define JSON_X "{\"kind\": \"x\"" JSON_TARGET
#define JSON_CONTROLS ", \"controls\": ["
#define JSON_SEP ", "
#define JSON_CLOSE "]}"
/* A literal's length without its NUL, and its copy to o, which returns its end. */
#define LEN(literal) (sizeof(literal) - 1)
#define PUT(o, literal) (memcpy((o), (literal), LEN(literal)), (o) + LEN(literal))

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

/* The four gate columns, in argument order. */
enum { GATE_COLUMNS = 4 };
static const char *const column_names[GATE_COLUMNS] = {"kind", "target", "cmask", "angle"};
static const char *const column_formats[GATE_COLUMNS] = {"B", "i", "QL", "d"};
static const Py_ssize_t column_itemsizes[GATE_COLUMNS] = {1, 4, 8, 8};

/* Gets the gate columns objs into views, each checked by get_column, and
   checks that they have one length, which it returns; returns -1 with an
   exception set and no view held. */
static Py_ssize_t
get_gate_columns(PyObject *const *objs, Py_buffer *views, const char *func)
{
    int held = 0;
    for (; held < GATE_COLUMNS; held++) {
        if (get_column(objs[held], &views[held], func, column_names[held], column_formats[held],
                       column_itemsizes[held], 0) < 0) {
            goto fail;
        }
    }
    const Py_ssize_t count = views[0].shape[0];
    for (int k = 1; k < GATE_COLUMNS; k++) {
        if (views[k].shape[0] != count) {
            PyErr_Format(PyExc_ValueError,
                         "%s: the gate columns differ in length (kind %zd, %s %zd)", func, count,
                         column_names[k], views[k].shape[0]);
            goto fail;
        }
    }
    return count;

fail:
    while (held > 0) {
        PyBuffer_Release(&views[--held]);
    }
    return -1;
}

static void
release_gate_columns(Py_buffer *views)
{
    for (int k = 0; k < GATE_COLUMNS; k++) {
        PyBuffer_Release(&views[k]);
    }
}

/* Gate g fits an n-qubit register, 1 <= n <= MASK_BITS: a known kind,
   0 <= target < n, and controls below 2**n that leave the target bit
   clear; and, where angle is not NULL, an Ry angle is finite.  Returns -1
   with an exception set. */
static int
check_gate(const char *func, int n, Py_ssize_t g, uint8_t kind, int32_t target, uint64_t cmask,
           const double *angle)
{
    const uint64_t outside = n < MASK_BITS ? ~(((uint64_t)1 << n) - 1) : 0;
    if (kind != KIND_RY && kind != KIND_X) {
        PyErr_Format(PyExc_ValueError, "%s: gate %zd has unknown kind %d", func, g, (int)kind);
        return -1;
    }
    if (target < 0 || target >= n) {
        PyErr_Format(PyExc_ValueError, "%s: gate %zd targets qubit %d of %d", func, g,
                     (int)target, n);
        return -1;
    }
    if ((cmask & outside) != 0 || (cmask >> target) & 1) {
        PyErr_Format(PyExc_ValueError,
                     "%s: gate %zd has control mask %llu, which does not fit %d qubits without "
                     "qubit %d",
                     func, g, (unsigned long long)cmask, n, (int)target);
        return -1;
    }
    if (angle != NULL && kind == KIND_RY && !isfinite(*angle)) {
        PyErr_Format(PyExc_ValueError, "%s: gate %zd has an angle that is not finite", func, g);
        return -1;
    }
    return 0;
}

/* check_gate for every gate, and every Ry angle where angle is not NULL. */
static int
check_gates(const char *func, int n, Py_ssize_t count, const uint8_t *kind,
            const int32_t *target, const uint64_t *cmask, const double *angle)
{
    for (Py_ssize_t g = 0; g < count; g++) {
        if (check_gate(func, n, g, kind[g], target[g], cmask[g],
                       angle == NULL ? NULL : &angle[g]) < 0) {
            return -1;
        }
    }
    return 0;
}

static PyObject *
run_gates(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *amps_obj, *objs[GATE_COLUMNS];
    if (!PyArg_UnpackTuple(args, "run_gates", 5, 5, &amps_obj, &objs[0], &objs[1], &objs[2],
                           &objs[3])) {
        return NULL;
    }
    Py_buffer amps, views[GATE_COLUMNS];
    if (get_column(amps_obj, &amps, "run_gates", "amps", "d", 8, 1) < 0) {
        return NULL;
    }
    const Py_ssize_t count = get_gate_columns(objs, views, "run_gates");
    if (count < 0) {
        PyBuffer_Release(&amps);
        return NULL;
    }
    PyObject *result = NULL;
    const Py_ssize_t size = amps.shape[0];
    const char *amps_lo = amps.buf, *amps_hi = amps_lo + amps.len;
    for (int k = 0; k < GATE_COLUMNS; k++) {
        /* a column that shares memory with amps could change under the loop
           after it was checked */
        const char *lo = views[k].buf, *hi = lo + views[k].len;
        if (lo < amps_hi && amps_lo < hi) {
            PyErr_Format(PyExc_ValueError, "run_gates: %s shares memory with amps",
                         column_names[k]);
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
    const uint8_t *kind = views[0].buf;
    const int32_t *target = views[1].buf;
    const uint64_t *cmask = views[2].buf;
    if (check_gates("run_gates", n, count, kind, target, cmask, NULL) < 0) {
        goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    apply_gates(amps.buf, (uint64_t)size, count, kind, target, cmask, views[3].buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);

done:
    release_gate_columns(views);
    PyBuffer_Release(&amps);
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

/* "00", "01", ..., "99" */
static const char pairs[] = "00010203040506070809101112131415161718192021222324252627282930313233"
                            "34353637383940414243444546474849505152535455565758596061626364656667"
                            "6869707172737475767778798081828384858687888990919293949596979899";

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
       out[22], which the caller's REPR_ROOM bytes hold */
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
short_repr(double Py_UNUSED(x), char *Py_UNUSED(out))
{
    return 0;
}

static void
init_short_repr(void)
{
}
#endif

/* The longest text of float.__repr__, such as -2.2250738585072014e-308
   (short_repr's are 23 bytes at most), and the room put_repr's out has. */
#define REPR_MAX 24
#define REPR_ROOM 30
/* The texts of the values.  Each value has a record of RECORD bytes: the
   separator and put_repr's room, whose text ends at most TEXT_MAX bytes
   in, then in its last byte the length of both, so that the writer can
   copy every record whole.  A value that the values pass does not format,
   unmarked or declined by short_repr, is staged: its record's last byte is
   0 and bytes STAGED..STAGED+7 hold its bits, so that values is read once. */
#define RECORD 32
#define STAGED 8
#define TEXT_MAX 26
_Static_assert(REPR_MAX <= REPR_ROOM, "a text overruns put_repr's room");
_Static_assert(LEN(JSON_SEP) + REPR_MAX <= TEXT_MAX && TEXT_MAX < RECORD &&
                   LEN(JSON_SEP) + REPR_ROOM <= RECORD, "a record overruns its length byte");
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

/* Writes float.__repr__(x) to out, which has room for REPR_ROOM bytes, and
   returns the end of the text: short_repr's, or else the text of
   PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL), the call
   float.__repr__ makes; NULL with an exception set. */
static char *
put_repr(char *out, double x)
{
    int len = short_repr(x, out);
    if (len == 0) {
        char *text = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (text == NULL) {
            return NULL;
        }
        len = (int)strlen(text);
        memcpy(out, text, (size_t)len);
        PyMem_Free(text);
    }
    return out + len;
}

/* Formats x into record; returns -1 with an exception set. */
static int
format_record(char *record, double x)
{
    memcpy(record, JSON_SEP, LEN(JSON_SEP));
    const char *end = put_repr(record + LEN(JSON_SEP), x);
    if (end == NULL) {
        return -1;
    }
    record[RECORD - 1] = (char)(end - record);
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

/* One range lo..hi - 1 of the values pass, which calls no Python API:
   formats each value that used marks and short_repr answers for into its
   record, and stages every other for record_of to format.  range->bad is
   set to the first value that is not finite, where the range stops, or -1. */
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
            len = short_repr(x, record + LEN(JSON_SEP));
        }
        if (len != 0) {
            memcpy(record, JSON_SEP, LEN(JSON_SEP));
            record[RECORD - 1] = (char)(LEN(JSON_SEP) + len);
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
   Returns the lowest value that is not finite, as one pass would, or -1. */
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

/* Where a document goes: the bytes start..end of chunk, a bytearray of
   CHUNK bytes, handed to write, through view, when it is full. */
typedef struct {
    char *start, *out, *end;
    PyObject *write, *chunk, *view;
} Sink;

/* Makes the sink's chunk, empty; returns -1 with an exception set.  Every
   sink, made or not, is released by close_sink. */
static int
open_sink(Sink *sink, PyObject *write)
{
    *sink = (Sink){NULL, NULL, NULL, write, NULL, NULL};
    sink->chunk = PyByteArray_FromStringAndSize(NULL, CHUNK);
    if (sink->chunk == NULL || (sink->view = PyMemoryView_FromObject(sink->chunk)) == NULL) {
        return -1;
    }
    sink->start = sink->out = PyByteArray_AS_STRING(sink->chunk);
    sink->end = sink->start + CHUNK;
    return 0;
}

static void
close_sink(Sink *sink)
{
    Py_XDECREF(sink->view);
    Py_XDECREF(sink->chunk);
}

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

/* Flushes the sink unless it has room for len more bytes; returns -1 with
   an exception set. */
static int
make_room(Sink *sink, Py_ssize_t len)
{
    return sink->end - sink->out < len ? flush(sink) : 0;
}

/* The record of entry i of index, formatted now if its value was staged
   (short_repr declined it, or another thread changed index after the hint
   pass); NULL with an exception set where the entry is not below count. */
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
   while the sink has room for them at their longest, the rest one by one. */
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
        const Py_ssize_t skip = i == 0 ? LEN(JSON_SEP) : 0;
        const Py_ssize_t len = (unsigned char)record[RECORD - 1] - skip;
        if (make_room(sink, len + LEN(JSON_CLOSE)) < 0) {
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
    PyObject *result = NULL;
    Sink sink = {NULL, NULL, NULL, NULL, NULL, NULL};
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
    if (open_sink(&sink, write) < 0) {
        goto done;
    }
    sink.out += PyOS_snprintf(sink.out, CHUNK, JSON_N_QUBITS "%zd, \"amplitudes\": [", n_qubits);
    if (emit(&sink, records, count, index.buf, size) < 0) {
        goto done;
    }
    /* each record left room for these two bytes */
    sink.out = PUT(sink.out, JSON_CLOSE);
    if (flush(&sink) == 0) {
        result = Py_NewRef(Py_None);
    }

done:
    close_sink(&sink);
    PyMem_Free(used);
    PyMem_Free(records);
    PyBuffer_Release(&index);
    PyBuffer_Release(&values);
    return result;
}

/* The circuit writers.  The pieces of an OpenQASM 3 line. */
#define QASM_CTRL "ctrl @ "
#define QASM_RY "ry("
#define QASM_RY_END ") "
#define QASM_X "x "
#define QASM_QUBIT "q["
#define QASM_NEXT "], "
#define QASM_END "];\n"
/* The room of a row's text and the bytes put_repr may touch past it: the
   longest row is an Ry gate with MASK_BITS - 1 controls of two digits. */
#define ROW_MAX 1024
_Static_assert(LEN(JSON_SEP JSON_RY) + REPR_ROOM + LEN(JSON_TARGET "00" JSON_CONTROLS JSON_CLOSE) +
                   (MASK_BITS - 1) * LEN("00" JSON_SEP) <= ROW_MAX, "a JSON row overruns ROW_MAX");
_Static_assert((MASK_BITS - 1) * LEN(QASM_CTRL QASM_QUBIT "00" QASM_NEXT) + LEN(QASM_RY) +
                   REPR_ROOM + LEN(QASM_RY_END QASM_QUBIT "00" QASM_END) <= ROW_MAX,
               "a QASM line overruns ROW_MAX");

/* The index of the lowest set bit of m, which is not 0. */
static inline int
lowest_bit(uint64_t m)
{
    return __builtin_ctzll(m);
}

/* Writes the qubit q < 100 in decimal. */
static inline char *
put_qubit(char *o, int q)
{
    if (q < 10) {
        *o = (char)('0' + q);
        return o + 1;
    }
    memcpy(o, pairs + 2 * q, 2);
    return o + 2;
}

/* Writes one row's text, in circuit_json's or circuit_qasm's layout, and
   returns its end; NULL with an exception set. */
typedef char *(*PutRow)(char *o, Py_ssize_t g, uint8_t kind, int target, uint64_t cmask,
                        double angle);

static char *
put_json_row(char *o, Py_ssize_t g, uint8_t kind, int target, uint64_t cmask, double angle)
{
    if (g > 0) {
        o = PUT(o, JSON_SEP);
    }
    if (kind == KIND_RY) {
        o = PUT(o, JSON_RY);
        if ((o = put_repr(o, angle)) == NULL) {
            return NULL;
        }
        o = PUT(o, JSON_TARGET);
    }
    else {
        o = PUT(o, JSON_X);
    }
    o = put_qubit(o, target);
    o = PUT(o, JSON_CONTROLS);
    for (uint64_t m = cmask; m != 0; m &= m - 1) {
        if (m != cmask) {
            o = PUT(o, JSON_SEP);
        }
        o = put_qubit(o, lowest_bit(m));
    }
    return PUT(o, JSON_CLOSE);
}

static char *
put_qasm_row(char *o, Py_ssize_t Py_UNUSED(g), uint8_t kind, int target, uint64_t cmask,
             double angle)
{
    for (uint64_t m = cmask; m != 0; m &= m - 1) {
        o = PUT(o, QASM_CTRL);
    }
    if (kind == KIND_RY) {
        o = PUT(o, QASM_RY);
        if ((o = put_repr(o, angle)) == NULL) {
            return NULL;
        }
        o = PUT(o, QASM_RY_END);
    }
    else {
        o = PUT(o, QASM_X);
    }
    for (uint64_t m = cmask; m != 0; m &= m - 1) {
        o = PUT(o, QASM_QUBIT);
        o = put_qubit(o, lowest_bit(m));
        o = PUT(o, QASM_NEXT);
    }
    o = PUT(o, QASM_QUBIT);
    o = put_qubit(o, target);
    return PUT(o, QASM_END);
}

/* circuit_json and circuit_qasm: parses (n_qubits, kind, target, cmask,
   angle, write) by format, checks the columns as run_gates does, and hands
   write the header, with n_qubits put in by head, each row by put_row, and
   tail. */
static PyObject *
write_circuit(PyObject *args, const char *format, const char *func, const char *head,
              PutRow put_row, const char *tail)
{
    Py_ssize_t n_qubits;
    PyObject *objs[GATE_COLUMNS], *write;
    if (!PyArg_ParseTuple(args, format, &n_qubits, &objs[0], &objs[1], &objs[2], &objs[3],
                          &write)) {
        return NULL;
    }
    if (!PyCallable_Check(write)) {
        PyErr_Format(PyExc_TypeError, "%s: write must be callable, not %.100s", func,
                     Py_TYPE(write)->tp_name);
        return NULL;
    }
    if (n_qubits < 1 || n_qubits > MASK_BITS) {
        PyErr_Format(PyExc_ValueError, "%s: n_qubits is %zd, not in 1..%d", func, n_qubits,
                     MASK_BITS);
        return NULL;
    }
    Py_buffer views[GATE_COLUMNS];
    const Py_ssize_t count = get_gate_columns(objs, views, func);
    if (count < 0) {
        return NULL;
    }
    const uint8_t *kind = views[0].buf;
    const int32_t *target = views[1].buf;
    const uint64_t *cmask = views[2].buf;
    const double *angle = views[3].buf;
    PyObject *result = NULL;
    Sink sink = {NULL, NULL, NULL, NULL, NULL, NULL};
    if (check_gates(func, (int)n_qubits, count, kind, target, cmask, angle) < 0 ||
        open_sink(&sink, write) < 0) {
        goto done;
    }
    sink.out += PyOS_snprintf(sink.out, CHUNK, head, n_qubits);
    for (Py_ssize_t g = 0; g < count; g++) {
        /* each row is read once and checked again: a write call, or a thread
           running without the GIL, may have changed it since the first pass */
        const uint8_t k = kind[g];
        const int32_t t = target[g];
        const uint64_t m = cmask[g];
        const double a = angle[g];
        if (check_gate(func, (int)n_qubits, g, k, t, m, &a) < 0 ||
            make_room(&sink, ROW_MAX) < 0) {
            goto done;
        }
        sink.out = put_row(sink.out, g, k, t, m, a);
        if (sink.out == NULL) {
            goto done;
        }
    }
    const size_t tail_len = strlen(tail);
    if (make_room(&sink, (Py_ssize_t)tail_len) == 0) {
        memcpy(sink.out, tail, tail_len);
        sink.out += tail_len;
        if (flush(&sink) == 0) {
            result = Py_NewRef(Py_None);
        }
    }

done:
    close_sink(&sink);
    release_gate_columns(views);
    return result;
}

static PyObject *
circuit_json(PyObject *Py_UNUSED(self), PyObject *args)
{
    return write_circuit(args, "nOOOOO:circuit_json", "circuit_json",
                         JSON_N_QUBITS "%zd" JSON_GATES, put_json_row, JSON_CLOSE);
}

static PyObject *
circuit_qasm(PyObject *Py_UNUSED(self), PyObject *args)
{
    return write_circuit(args, "nOOOOO:circuit_qasm", "circuit_qasm",
                         "OPENQASM 3.0;\ninclude \"stdgates.inc\";\nqubit[%zd] q;\n", put_qasm_row,
                         "");
}

/* The circuit reader.  Every row it takes spans at least ROW_MIN bytes,
   as shortest_row does, so a text of len bytes holds at most len / ROW_MIN
   of them, whose columns take at most half of it. */
static const char shortest_row[] = JSON_X "0" JSON_CONTROLS JSON_CLOSE;
#define ROW_MIN ((Py_ssize_t)LEN(shortest_row))
_Static_assert(LEN(JSON_RY "0e0" JSON_TARGET) >= LEN(JSON_X), "an Ry row is shorter");
_Static_assert(2 * (sizeof(uint8_t) + sizeof(int32_t) + sizeof(uint64_t) + sizeof(double)) <=
                   ROW_MIN, "a row's columns take more than half of its text");
/* The longest angle text read, plus its NUL. */
#define ANGLE_MAX 32
_Static_assert(REPR_MAX < ANGLE_MAX, "the reader declines an angle that the writer puts");

/* Takes the len bytes of literal at *p; 0 where the text differs. */
static inline int
take(const char **p, const char *end, const char *literal, size_t len)
{
    if ((size_t)(end - *p) < len || memcmp(*p, literal, len) != 0) {
        return 0;
    }
    *p += len;
    return 1;
}

#define TAKE(p, end, literal) take(&(p), (end), (literal), LEN(literal))

static inline int
is_digit(char c)
{
    return (unsigned)(c - '0') <= 9;
}

/* Takes a qubit index 0|[1-9][0-9]? below bound at *p; -1 where there is
   none.  Whatever digit follows is left for the next literal to refuse. */
static int
take_index(const char **p, const char *end, int bound)
{
    const char *s = *p;
    if (s == end || !is_digit(*s)) {
        return -1;
    }
    int q = *s++ - '0';
    if (q != 0 && s < end && is_digit(*s)) {
        q = 10 * q + (*s++ - '0');
    }
    if (q >= bound) {
        return -1;
    }
    *p = s;
    return q;
}

/* Skips a run of digits at s and returns its end; NULL where there is no
   digit. */
static const char *
skip_digits(const char *s, const char *end)
{
    if (s == end || !is_digit(*s)) {
        return NULL;
    }
    while (s < end && is_digit(*s)) {
        s++;
    }
    return s;
}

/* Takes a JSON number that json reads as a float, with a fraction or an
   exponent, at *p into *angle, converted as json converts it: 1 where it
   is finite, 0 where there is none, it is not finite or its text is
   ANGLE_MAX bytes or longer, -1 with an exception set. */
static int
take_angle(const char **p, const char *end, double *angle)
{
    const char *s = *p;
    if (s < end && *s == '-') {
        s++;
    }
    s = s < end && *s == '0' ? s + 1 : skip_digits(s, end);
    if (s == NULL) {
        return 0;
    }
    const char *whole = s;
    if (s < end && *s == '.' && (s = skip_digits(s + 1, end)) == NULL) {
        return 0;
    }
    if (s < end && (*s == 'e' || *s == 'E')) {
        s++;
        if (s < end && (*s == '+' || *s == '-')) {
            s++;
        }
        if ((s = skip_digits(s, end)) == NULL) {
            return 0;
        }
    }
    const Py_ssize_t len = s - *p;
    if (s == whole || len >= ANGLE_MAX) {
        return 0;
    }
    char text[ANGLE_MAX];
    memcpy(text, *p, (size_t)len);
    text[len] = '\0';
    const double value = PyOS_string_to_double(text, NULL, NULL);
    if (value == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    if (!isfinite(value)) {
        return 0;
    }
    *angle = value;
    *p = s;
    return 1;
}

/* Takes one row in circuit_json's layout, of an n-qubit register, at *p
   into its column values: 1 where it is one, 0 where it is not, -1 with
   an exception set. */
static int
take_row(const char **p, const char *end, int n, uint8_t *kind, int32_t *target,
         uint64_t *cmask, double *angle)
{
    if (TAKE(*p, end, JSON_RY)) {
        const int read = take_angle(p, end, angle);
        if (read < 1) {
            return read;
        }
        if (!TAKE(*p, end, JSON_TARGET)) {
            return 0;
        }
        *kind = KIND_RY;
    }
    else if (TAKE(*p, end, JSON_X)) {
        *kind = KIND_X;
        *angle = 0.0;
    }
    else {
        return 0;
    }
    const int t = take_index(p, end, n);
    if (t < 0 || !TAKE(*p, end, JSON_CONTROLS)) {
        return 0;
    }
    uint64_t mask = 0;
    if (!TAKE(*p, end, JSON_CLOSE)) {
        /* strictly ascending, so no control repeats */
        int last = -1;
        do {
            const int q = take_index(p, end, n);
            if (q <= last || q == t) {
                return 0;
            }
            mask |= (uint64_t)1 << q;
            last = q;
        } while (TAKE(*p, end, JSON_SEP));
        if (!TAKE(*p, end, JSON_CLOSE)) {
            return 0;
        }
    }
    *target = t;
    *cmask = mask;
    return 1;
}

static PyObject *
circuit_columns(PyObject *Py_UNUSED(self), PyObject *text)
{
    if (!PyUnicode_CheckExact(text)) {
        Py_RETURN_NONE;
    }
#if PY_VERSION_HEX < 0x030C0000
    /* from 3.12 on every str is ready, and PyUnicode_READY is deprecated */
    if (PyUnicode_READY(text) < 0) {
        return NULL;
    }
#endif
    if (!PyUnicode_IS_ASCII(text)) {
        Py_RETURN_NONE;
    }
    const char *p = PyUnicode_DATA(text);
    const char *const end = p + PyUnicode_GET_LENGTH(text);
    int n;
    if (!TAKE(p, end, JSON_N_QUBITS) || (n = take_index(&p, end, MASK_BITS + 1)) < 1 ||
        !TAKE(p, end, JSON_GATES)) {
        Py_RETURN_NONE;
    }
    /* sized by the text alone, at most half its length */
    const Py_ssize_t rows = (end - p) / ROW_MIN;
    PyObject *columns[GATE_COLUMNS] = {NULL, NULL, NULL, NULL}, *result = NULL;
    for (int k = 0; k < GATE_COLUMNS; k++) {
        columns[k] = PyBytes_FromStringAndSize(NULL, rows * column_itemsizes[k]);
        if (columns[k] == NULL) {
            goto done;
        }
    }
    uint8_t *kind = (uint8_t *)PyBytes_AS_STRING(columns[0]);
    int32_t *target = (int32_t *)PyBytes_AS_STRING(columns[1]);
    uint64_t *cmask = (uint64_t *)PyBytes_AS_STRING(columns[2]);
    double *angle = (double *)PyBytes_AS_STRING(columns[3]);
    Py_ssize_t count = 0;
    int read = 1;
    if (!TAKE(p, end, JSON_CLOSE)) {
        do {
            uint8_t k;
            int32_t t;
            uint64_t m;
            double a;
            read = take_row(&p, end, n, &k, &t, &m, &a);
            if (read == 1) {
                /* count + 1 whole rows span (count + 1) * ROW_MIN bytes or
                   more, so count < rows */
                kind[count] = k;
                target[count] = t;
                cmask[count] = m;
                angle[count] = a;
                count++;
            }
        } while (read == 1 && TAKE(p, end, JSON_SEP));
        if (read < 0) {
            goto done;
        }
        read = read && TAKE(p, end, JSON_CLOSE);
    }
    /* then only JSON whitespace, such as the CLI's final newline */
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
        p++;
    }
    if (!read || p != end) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    for (int k = 0; k < GATE_COLUMNS; k++) {
        if (_PyBytes_Resize(&columns[k], count * column_itemsizes[k]) < 0) {
            goto done;
        }
    }
    result = Py_BuildValue("(iOOOO)", n, columns[0], columns[1], columns[2], columns[3]);

done:
    for (int k = 0; k < GATE_COLUMNS; k++) {
        Py_XDECREF(columns[k]);
    }
    return result;
}

static PyObject *
short_repr_py(PyObject *Py_UNUSED(self), PyObject *arg)
{
    const double x = PyFloat_AsDouble(arg);
    if (x == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    char text[REPR_ROOM];
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
    {"circuit_json", circuit_json, METH_VARARGS,
     "circuit_json(n_qubits, kind, target, cmask, angle, write)\n--\n\n"
     "Hand the circuit document {\"n_qubits\": n_qubits, \"gates\": [...]} of\n"
     "the gates in the four columns that run_gates takes, byte for byte what\n"
     "json.dumps writes for one dict per gate, to write in pieces of at most\n"
     "64 KiB, each a memoryview released when write returns, and return None.\n"
     "Raises TypeError when write is not callable, ValueError when n_qubits\n"
     "is not in 1..64 or a column or a gate does not fit, as run_gates checks\n"
     "them, or a Ry angle is not finite, before write is first called; and\n"
     "whatever write raises."},
    {"circuit_qasm", circuit_qasm, METH_VARARGS,
     "circuit_qasm(n_qubits, kind, target, cmask, angle, write)\n--\n\n"
     "circuit_json for the OpenQASM 3 text of the circuit: a header, then one\n"
     "line per gate, with a ctrl @ modifier per control and the controls in\n"
     "ascending order before the target among the operands."},
    {"circuit_columns", circuit_columns, METH_O,
     "circuit_columns(text)\n--\n\n"
     "Read the circuit document text, if it is exactly what circuit_json\n"
     "writes for 1..64 qubits, then any JSON whitespace, and return\n"
     "(n_qubits, kind, target, cmask, angle): the four columns that run_gates\n"
     "takes, each as bytes.  Return None for any other text, such as one that\n"
     "is not an ASCII str, has other spacing or key order, a control that is\n"
     "not above the one before or is the target, an index outside the\n"
     "register or with a leading zero, or an Ry angle that json would not\n"
     "read as a finite float.  The columns take at most half the length of\n"
     "text, however many gates it names."},
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
    .m_doc = "Compiled simulator kernel, P2 raster decoder, state and circuit writers and "
             "circuit reader for ryprep.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    init_short_repr();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddIntConstant(m, "MAX_QUBITS", MAX_QUBITS) < 0 ||
                      PyModule_AddIntConstant(m, "MASK_BITS", MASK_BITS) < 0 ||
                      PyModule_AddIntConstant(m, "_SPLIT_AT", SPLIT_AT) < 0)) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
