/* Compiled control-subspace kernel for ryprep.simulator.

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
   kernel (_apply_inplace), so the two agree bit for bit as long as the
   compiler contracts no multiply-add into an FMA: build with
   -ffp-contract=off. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Same cap as ryprep.simulator.MAX_QUBITS. */
#define MAX_QUBITS 26

enum { KIND_RY = 0, KIND_X = 1 };

/* One argument's buffer, checked for item type, shape and layout. */
static int
get_column(PyObject *obj, Py_buffer *view, const char *name, const char *formats,
           Py_ssize_t itemsize, int writable)
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
        PyErr_Format(PyExc_ValueError, "run_gates: %s %s (format %s, itemsize %zd)", name, why,
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
run_gates(PyObject *self, PyObject *args)
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
        if (get_column(objs[held], &views[held], names[held], formats[held], itemsizes[held],
                       held == 0) < 0) {
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

static PyMethodDef methods[] = {
    {"run_gates", run_gates, METH_VARARGS,
     "run_gates(amps, kind, target, cmask, angle)\n--\n\n"
     "Apply the gates given by four equal-length columns (uint8 kind, 0 for Ry\n"
     "and 1 for X; int32 target; uint64 control mask; float64 angle) to the\n"
     "float64 statevector amps in place.  Raises ValueError, writing nothing,\n"
     "when a buffer or a gate does not fit."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "ryprep._simkernel",
    .m_doc = "Compiled control-subspace kernel for ryprep.simulator.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__simkernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "MAX_QUBITS", MAX_QUBITS) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
