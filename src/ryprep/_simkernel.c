/* Compiled helpers for ryprep: the control-subspace simulator kernel and the
   state-JSON writer.  Each has a NumPy fallback in the package, used when
   this module cannot be imported, which is also its reference in the tests.

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

   state_json(n_qubits, values, index) returns the state document
   {"n_qubits": N, "amplitudes": [a0, a1, ...]} as one str, byte for byte
   what json.dumps writes (states._state_json_numpy is the fallback), for
   the amplitudes values[index[0]], values[index[1]], ...: a table of
   values and an index into it, such as encode's palette and pixel index,
   or the distinct amplitudes of any other state.  values is a
   C-contiguous one-dimensional float64 buffer of finite values, used or
   not; index is a C-contiguous one-dimensional uint32 buffer of fewer than
   2**32 entries, each below len(values).  Every value has a record,
   formatted at its first use as float.__repr__ formats it: by short_repr,
   or else by PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL), the
   call float.__repr__ makes.  One pass reads each value once, refusing any
   that is not finite, and keeps its bits in its record.  A second reads
   each index entry once: it checks the entry, formats the value if it is
   the first use, keeps the entry in a private uint32 array and adds up the
   length.  A third copies the records by those private numbers into the one
   str.  Memory is 4 bytes per amplitude plus 32 bytes per value.  A thread
   that changes values or index during the call, such as a NumPy ufunc
   running without the GIL, cannot make the document inconsistent: it holds
   each value and each entry as the one pass over it read them.

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
   nonzero amplitudes of an image state lie in about [1.9e-9, 1]; of those,
   only a power of two, such as the 1.0 of a single lit pixel, defers. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
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

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

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
    /* p = 15, 16, 17 digits: round q + r / 2**t to a multiple of unit */
    static const uint64_t units[3] = {100, 10, 1};
    uint64_t digits = 0;
    int k = 0;
    for (; k < 3; k++) {
        const uint64_t unit = units[k];
        const u128 below = (u128)(q % unit) << t | r; /* x * 10**s above q - q % unit */
        const u128 above = ((u128)unit << t) - below;
        if (below == above) {
            return 0;
        }
        /* half an ulp of x, times 10**s, is 5**s / 2 in units of 2**-t */
        const u128 dist = below < above ? below : above;
        if (2 * dist < pow5[s]) {
            digits = q / unit + (below > above);
            break;
        }
    }
    if (k == 3) {
        return 0;
    }
    /* the value is digits * 10**point, digits without trailing zeros */
    int point = 2 - k - s;
    while (digits % 10 == 0) {
        digits /= 10;
        point++;
    }
    char buf[20];
    char *const end = buf + sizeof buf;
    char *d = end;
    do {
        *--d = (char)('0' + digits % 10);
        digits /= 10;
    } while (digits != 0);
    const int len = (int)(end - d);
    /* repr's decimal point position: the value is 0.ddd * 10**decpt */
    const int decpt = len + point;
    char *o = out;
    if (bits >> 63) {
        *o++ = '-';
    }
    if (decpt <= -4 || decpt > 16) {
        *o++ = d[0];
        if (len > 1) {
            *o++ = '.';
            memcpy(o, d + 1, (size_t)len - 1);
            o += len - 1;
        }
        /* two digits, since 2**-53 <= x < 2**51 here */
        const int exponent = decpt - 1;
        *o++ = 'e';
        *o++ = exponent < 0 ? '-' : '+';
        *o++ = (char)('0' + abs(exponent) / 10);
        *o++ = (char)('0' + abs(exponent) % 10);
    }
    else if (decpt <= 0) {
        memcpy(o, "0.000", (size_t)(2 - decpt));
        o += 2 - decpt;
        memcpy(o, d, (size_t)len);
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
   byte the length of both together, so that the writer can copy every
   record whole.  Until its value is first used, a record's last byte is 0
   and bytes STAGED..STAGED+7 hold the value's bits, so that values is read
   once. */
#define RECORD 32
#define STAGED 8
#define EXPONENT_BITS 0x7FF0000000000000ULL

/* Copies the bits of each of the count values into its record, unformatted;
   returns -1 with an exception set at the first value that is not finite. */
static int
stage_values(char *records, const double *values, Py_ssize_t count)
{
    for (Py_ssize_t v = 0; v < count; v++) {
        uint64_t bits;
        memcpy(&bits, &values[v], sizeof bits);
        if ((bits & EXPONENT_BITS) == EXPONENT_BITS) {
            PyErr_Format(PyExc_ValueError, "state_json: values[%zd] is not finite", v);
            return -1;
        }
        char *record = records + RECORD * v;
        memcpy(record + STAGED, &bits, sizeof bits);
        record[RECORD - 1] = 0;
    }
    return 0;
}

/* Formats the value staged in record over it; returns -1 with an exception
   set. */
static int
format_record(char *record)
{
    double x;
    memcpy(&x, record + STAGED, sizeof x);
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

/* The one pass over index: checks each entry against the count values,
   formats each value at its first use, stores the entry in numbers[i], and
   returns the summed length of all the amplitudes' records, separators
   included, or -1 with an exception set. */
static Py_ssize_t
collect_records(char *records, Py_ssize_t count, const uint32_t *index, Py_ssize_t size,
                uint32_t *numbers)
{
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        const uint32_t v = index[i];
        if ((Py_ssize_t)v >= count) {
            PyErr_Format(PyExc_ValueError, "state_json: index[%zd] is %lu, past the %zd values",
                         i, (unsigned long)v, count);
            return -1;
        }
        char *record = records + RECORD * (size_t)v;
        if (record[RECORD - 1] == 0 && format_record(record) < 0) {
            return -1;
        }
        numbers[i] = v;
        total += (unsigned char)record[RECORD - 1];
    }
    return total;
}

/* The document: the records numbered in numbers copied in order, records_len
   bytes in all, less the first separator. */
static PyObject *
write_document(const char *records, Py_ssize_t n_qubits, const uint32_t *numbers,
               Py_ssize_t size, Py_ssize_t records_len)
{
    char head[64];
    const int head_len =
        PyOS_snprintf(head, sizeof head, "{\"n_qubits\": %zd, \"amplitudes\": [", n_qubits);
    /* the first amplitude has no separator */
    const Py_ssize_t length = head_len + (size > 0 ? records_len - 2 : 0) + 2;
    PyObject *doc = PyUnicode_New(length, 127);
    if (doc == NULL) {
        return NULL;
    }
    char *out = (char *)PyUnicode_1BYTE_DATA(doc);
    char *const end = out + length;
    memcpy(out, head, (size_t)head_len);
    out += head_len;
    for (Py_ssize_t i = 0; i < size; i++) {
        const char *from = records + RECORD * (size_t)numbers[i];
        size_t len = (unsigned char)from[RECORD - 1];
        if (i == 0) {
            from += 2;
            len -= 2;
        }
        if (i > 0 && end - out >= RECORD) {
            /* a copy of fixed size, which compiles to a few moves; the
               bytes past len are overwritten by what follows */
            memcpy(out, from, RECORD);
        }
        else {
            memcpy(out, from, len);
        }
        out += len;
    }
    memcpy(out, "]}", 2);
    return doc;
}

static PyObject *
state_json(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n_qubits;
    PyObject *values_obj, *index_obj;
    if (!PyArg_ParseTuple(args, "nOO:state_json", &n_qubits, &values_obj, &index_obj)) {
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
    PyObject *doc = NULL;
    char *records = NULL;
    uint32_t *numbers = NULL;
    const Py_ssize_t count = values.shape[0], size = index.shape[0];
    if ((uint64_t)size > UINT32_MAX) {
        PyErr_Format(PyExc_ValueError, "state_json: index holds %zd entries, 2**32 or more", size);
        goto done;
    }
    records = PyMem_Malloc((size_t)count * RECORD);
    numbers = PyMem_Malloc((size_t)size * sizeof *numbers);
    if (records == NULL || numbers == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (stage_values(records, values.buf, count) < 0) {
        goto done;
    }
    const Py_ssize_t records_len = collect_records(records, count, index.buf, size, numbers);
    if (records_len >= 0) {
        doc = write_document(records, n_qubits, numbers, size, records_len);
    }

done:
    PyMem_Free(numbers);
    PyMem_Free(records);
    PyBuffer_Release(&index);
    PyBuffer_Release(&values);
    return doc;
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
     "state_json(n_qubits, values, index)\n--\n\n"
     "The state document {\"n_qubits\": n_qubits, \"amplitudes\": [...]} as\n"
     "one str, byte for byte what json.dumps writes, for the amplitudes\n"
     "values[index]: each value of the float64 buffer values is formatted at\n"
     "its first use, and each value and each index entry is read once.  Memory\n"
     "is 4 bytes per amplitude plus 32 bytes per value.  Raises ValueError when\n"
     "values is not a C-contiguous one-dimensional float64 buffer of finite\n"
     "values, or index not a C-contiguous one-dimensional uint32 buffer of\n"
     "fewer than 2**32 entries, each below len(values)."},
    {"_short_repr", short_repr_py, METH_O,
     "_short_repr(x)\n--\n\n"
     "repr(x) as state_json's own formatter writes it, or None where it\n"
     "leaves x to PyOS_double_to_string.  For tests."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ryprep._simkernel",
    .m_doc = "Compiled simulator kernel and state-JSON writer for ryprep.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    init_short_repr();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "MAX_QUBITS", MAX_QUBITS) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
