/* The compiled kernel dispatch core behind the "compiled" backend.
 *
 * One entry point: drain(sim, queue, until, exclusive) — the reference
 * fused loop from repro/sim/kernel.py rewritten as C against the same
 * data structures.  The heap stays a Python list of
 * (time, priority, seq, Event) tuples, so scheduling from callbacks
 * (which runs the ordinary Python schedule()) interleaves freely with
 * the C pops, and the Python cold paths see an identical queue layout.
 *
 * Semantics are held to the same bar as the Python reference: the
 * dispatch-digest goldens and the fused-vs-naive hypothesis suite run
 * bit-identically.  Specifically:
 *
 *  - (time, priority, seq) total order via tuple comparison.  The
 *    comparison never reaches the Event in slot 3 because seq values
 *    are distinct, so no user __lt__ can run inside the sift.
 *  - The inclusive horizon dispatches events at exactly `until`; the
 *    exclusive horizon (the space-parallel barrier window) leaves
 *    them queued.  This loop uses the bounds-check formulation (the
 *    reference max_events branch) rather than a sentinel event —
 *    provably order-identical, and it keeps _Stop out of C.
 *  - queue._live and sim.now are updated per dispatched event, before
 *    the callback runs, exactly like the reference loop.
 *    sim._dispatched accumulates in a C local and is written back on
 *    every exit path (the reference loop's `finally`), including when
 *    a callback raises.
 *  - Spent events are recycled through queue._free, gated on the true
 *    refcount: the entry tuple is released before the check, so
 *    Py_REFCNT(event) == 1 here is the same condition as
 *    sys.getrefcount(event) == _DISPATCH_REFS in the Python loop —
 *    any extra reference means a user still holds the handle and the
 *    event is left to the garbage collector.
 *
 * Slot access goes through member-descriptor offsets resolved once at
 * first use (Simulator, EventQueue and Event are all __slots__
 * classes), so the per-event cost is a pointer load, not an attribute
 * lookup.  Offsets come from the descriptors themselves, so subclasses
 * with extra slots keep working — their inherited slots sit at the
 * base offsets.
 *
 * Built on demand: REPRO_BUILD_CKERNEL=1 python setup.py build_ext
 * --inplace (or `make compiled-backend`).  repro/sim/backends/
 * compiled.py degrades gracefully when this module is absent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* A slot of a __slots__ instance at a known byte offset. */
#define SLOT(op, off) (*(PyObject **)((char *)(op) + (off)))

static int bindings_ready = 0;
static PyTypeObject *event_type = NULL; /* repro.sim.events.Event */
static PyObject *recycled_fn = NULL;    /* repro.sim.events._recycled */
static PyObject *empty_tuple = NULL;
static Py_ssize_t free_list_max = 0;    /* repro.sim.events.FREE_LIST_MAX */
static Py_ssize_t off_now, off_dispatched;          /* Simulator */
static Py_ssize_t off_heap, off_live, off_free;     /* EventQueue */
static Py_ssize_t off_cb, off_args, off_cancelled;  /* Event */

/* Byte offset of a T_OBJECT_EX slot, found via its member descriptor
 * on the type (inherited descriptors report the defining class's
 * offset, which is where the slot lives in subclass instances too). */
static Py_ssize_t
slot_offset(PyTypeObject *tp, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)tp, name);
    if (descr == NULL)
        return -1;
    if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not a slot member descriptor",
                     tp->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    Py_ssize_t offset = member->offset;
    int kind = member->type;
    Py_DECREF(descr);
    if (kind != T_OBJECT_EX && kind != T_OBJECT) {
        PyErr_Format(PyExc_TypeError,
                     "%s.%s is not an object slot", tp->tp_name, name);
        return -1;
    }
    return offset;
}

static int
ensure_bindings(PyObject *sim, PyObject *queue)
{
    if (bindings_ready)
        return 0;
    PyObject *events_mod = PyImport_ImportModule("repro.sim.events");
    if (events_mod == NULL)
        return -1;
    PyObject *ev = PyObject_GetAttrString(events_mod, "Event");
    PyObject *rec = PyObject_GetAttrString(events_mod, "_recycled");
    PyObject *flm = PyObject_GetAttrString(events_mod, "FREE_LIST_MAX");
    Py_DECREF(events_mod);
    if (ev == NULL || rec == NULL || flm == NULL || !PyType_Check(ev)) {
        Py_XDECREF(ev);
        Py_XDECREF(rec);
        Py_XDECREF(flm);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "repro.sim.events.Event is not a type");
        return -1;
    }
    free_list_max = PyLong_AsSsize_t(flm);
    Py_DECREF(flm);
    if (free_list_max == -1 && PyErr_Occurred()) {
        Py_DECREF(ev);
        Py_DECREF(rec);
        return -1;
    }
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL) {
        Py_DECREF(ev);
        Py_DECREF(rec);
        return -1;
    }
    event_type = (PyTypeObject *)ev;  /* steal: held for process life */
    recycled_fn = rec;                /* steal: held for process life */
    if ((off_now = slot_offset(Py_TYPE(sim), "now")) < 0
        || (off_dispatched = slot_offset(Py_TYPE(sim),
                                         "_dispatched")) < 0
        || (off_heap = slot_offset(Py_TYPE(queue), "_heap")) < 0
        || (off_live = slot_offset(Py_TYPE(queue), "_live")) < 0
        || (off_free = slot_offset(Py_TYPE(queue), "_free")) < 0
        || (off_cb = slot_offset(event_type, "callback")) < 0
        || (off_args = slot_offset(event_type, "args")) < 0
        || (off_cancelled = slot_offset(event_type, "cancelled")) < 0)
        return -1;
    bindings_ready = 1;
    return 0;
}

/* ------------------------------------------------------------------
 * Binary-heap primitives over a list of comparison-safe tuples.
 * Mirrors heapq's algorithms (including the sift-to-leaf pop trick,
 * which halves the comparisons per level); comparisons only ever
 * touch floats and ints, so no user code can run (and thus nothing
 * mutates the list) inside a sift.
 * ------------------------------------------------------------------ */

/* entry_a < entry_b, with tuple-comparison semantics: time, then
 * priority, then seq (always distinct, so slot 3 is never compared).
 * The fast path compares unboxed doubles/longs; anything unusual —
 * int-typed times, priorities outside C long — falls back to the
 * generic tuple comparison, which implements the identical order.
 * Returns 1/0, or -1 with an exception set. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    PyObject *xa = PyTuple_GET_ITEM(a, 0);
    PyObject *xb = PyTuple_GET_ITEM(b, 0);
    int overflow_a, overflow_b;
    long va, vb;
    if (!PyFloat_CheckExact(xa) || !PyFloat_CheckExact(xb))
        goto generic;
    {
        double ta = PyFloat_AS_DOUBLE(xa);
        double tb = PyFloat_AS_DOUBLE(xb);
        /* NaN compares unequal to itself in both formulations, and
         * the < below is then false — same verdict as tuple order. */
        if (ta != tb)
            return ta < tb;
    }
    xa = PyTuple_GET_ITEM(a, 1);
    xb = PyTuple_GET_ITEM(b, 1);
    if (!PyLong_CheckExact(xa) || !PyLong_CheckExact(xb))
        goto generic;
    va = PyLong_AsLongAndOverflow(xa, &overflow_a);
    vb = PyLong_AsLongAndOverflow(xb, &overflow_b);
    if (overflow_a || overflow_b)
        goto generic;
    if (va != vb)
        return va < vb;
    xa = PyTuple_GET_ITEM(a, 2);
    xb = PyTuple_GET_ITEM(b, 2);
    if (!PyLong_CheckExact(xa) || !PyLong_CheckExact(xb))
        goto generic;
    va = PyLong_AsLongAndOverflow(xa, &overflow_a);
    vb = PyLong_AsLongAndOverflow(xb, &overflow_b);
    if (overflow_a || overflow_b)
        goto generic;
    return va < vb;
generic:
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* Bubble the item at `pos` toward the root. */
static int
sift_toward_root(PyObject *heap, Py_ssize_t pos)
{
    PyObject *item = PyList_GET_ITEM(heap, pos);
    PyObject *old;
    Py_INCREF(item); /* conceptual hole at pos */
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int cmp = entry_lt(item, parent);
        if (cmp < 0)
            goto restore_fail;
        if (cmp == 0)
            break;
        Py_INCREF(parent);
        old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, parent);
        Py_DECREF(old);
        pos = parentpos;
    }
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return 0;
restore_fail:
    /* Leave the list refcount-consistent; order no longer matters
     * because the comparison error is about to propagate. */
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return -1;
}

/* Sift the item at the root down to its place: walk the smaller-child
 * chain all the way to a leaf (one comparison per level), then bubble
 * the displaced item back up — heapq's _siftup strategy. */
static int
sift_toward_leaves(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    Py_ssize_t limit = n >> 1; /* nodes with at least one child */
    Py_ssize_t pos = 0;
    PyObject *item = PyList_GET_ITEM(heap, pos);
    PyObject *old;
    Py_INCREF(item); /* conceptual hole at pos */
    while (pos < limit) {
        Py_ssize_t child = 2 * pos + 1;
        PyObject *small;
        if (child + 1 < n) {
            int cmp = entry_lt(PyList_GET_ITEM(heap, child + 1),
                               PyList_GET_ITEM(heap, child));
            if (cmp < 0)
                goto restore_fail;
            if (cmp)
                child += 1;
        }
        small = PyList_GET_ITEM(heap, child);
        Py_INCREF(small);
        old = PyList_GET_ITEM(heap, pos);
        PyList_SET_ITEM(heap, pos, small);
        Py_DECREF(old);
        pos = child;
    }
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return sift_toward_root(heap, pos);
restore_fail:
    old = PyList_GET_ITEM(heap, pos);
    PyList_SET_ITEM(heap, pos, item);
    Py_DECREF(old);
    return -1;
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    return sift_toward_root(heap, PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest entry.  Caller guarantees the heap is non-empty;
 * returns a new reference, or NULL on (comparison) error. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    PyObject *smallest, *old;
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) == 0)
        return last;
    smallest = PyList_GET_ITEM(heap, 0);
    Py_INCREF(smallest);
    old = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last); /* transfers our ref to the list */
    Py_DECREF(old);                 /* old == smallest; we still own 1 */
    if (sift_toward_leaves(heap) < 0) {
        Py_DECREF(smallest);
        return NULL;
    }
    return smallest;
}

/* ------------------------------------------------------------------
 * Per-event bookkeeping
 * ------------------------------------------------------------------ */

static int
adjust_live(PyObject *queue, long delta)
{
    PyObject *old = SLOT(queue, off_live);
    long value = PyLong_AsLong(old);
    PyObject *fresh;
    if (value == -1 && PyErr_Occurred())
        return -1;
    fresh = PyLong_FromLong(value + delta);
    if (fresh == NULL)
        return -1;
    SLOT(queue, off_live) = fresh;
    Py_DECREF(old);
    return 0;
}

/* Park a spent event on the free list iff nothing outside this frame
 * still references it (caller holds exactly one reference). */
static void
maybe_recycle(PyObject *event, PyObject *free_list)
{
    PyObject *old;
    if (Py_REFCNT(event) != 1)
        return;
    if (PyList_GET_SIZE(free_list) >= free_list_max)
        return;
    Py_INCREF(recycled_fn);
    old = SLOT(event, off_cb);
    SLOT(event, off_cb) = recycled_fn;
    Py_XDECREF(old);
    Py_INCREF(empty_tuple);
    old = SLOT(event, off_args);
    SLOT(event, off_args) = empty_tuple;
    Py_XDECREF(old);
    if (PyList_Append(free_list, event) < 0)
        PyErr_Clear(); /* out of memory parking a spare: just drop it */
}

/* sim._dispatched += n, preserving any in-flight exception (this is
 * the C analogue of the reference loop's `finally` writeback). */
static int
writeback_dispatched(PyObject *sim, Py_ssize_t n)
{
    PyObject *exc_type, *exc_value, *exc_tb;
    PyObject *old, *fresh;
    long value;
    int status = 0;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    old = SLOT(sim, off_dispatched);
    value = PyLong_AsLong(old);
    if (value == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        status = -1;
    }
    else {
        fresh = PyLong_FromLong(value + (long)n);
        if (fresh == NULL) {
            PyErr_Clear();
            status = -1;
        }
        else {
            SLOT(sim, off_dispatched) = fresh;
            Py_XDECREF(old);
        }
    }
    PyErr_Restore(exc_type, exc_value, exc_tb);
    return status;
}

/* ------------------------------------------------------------------
 * drain(sim, queue, until, exclusive) -> now
 * ------------------------------------------------------------------ */

static PyObject *
drain(PyObject *module, PyObject *call_args)
{
    PyObject *sim, *queue, *until_obj;
    PyObject *heap, *free_list, *result;
    int exclusive, has_until, status = 0;
    double until = 0.0;
    Py_ssize_t dispatched = 0;

    (void)module;
    if (!PyArg_ParseTuple(call_args, "OOOp:drain",
                          &sim, &queue, &until_obj, &exclusive))
        return NULL;
    if (ensure_bindings(sim, queue) < 0)
        return NULL;
    has_until = (until_obj != Py_None);
    if (has_until) {
        double now;
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        now = PyFloat_AsDouble(SLOT(sim, off_now));
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
        if (exclusive ? (until <= now) : (until < now)) {
            result = SLOT(sim, off_now);
            Py_INCREF(result);
            return result;
        }
    }
    heap = SLOT(queue, off_heap);
    free_list = SLOT(queue, off_free);
    if (heap == NULL || free_list == NULL
        || !PyList_CheckExact(heap) || !PyList_CheckExact(free_list)) {
        PyErr_SetString(PyExc_TypeError,
                        "EventQueue internals are not plain lists");
        return NULL;
    }
    /* The heap and free list keep their identity for the queue's
     * whole lifetime (clear() empties them in place), so borrowing
     * them across callbacks is safe — same argument as the Python
     * loop's hot locals. */

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *entry = heap_pop(heap);
        PyObject *time_obj, *event, *callback, *cb_args, *old, *res;
        if (entry == NULL) {
            status = -1;
            break;
        }
        if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 4) {
            Py_DECREF(entry);
            PyErr_SetString(PyExc_TypeError,
                            "heap entry is not a 4-tuple");
            status = -1;
            break;
        }
        time_obj = PyTuple_GET_ITEM(entry, 0);
        event = PyTuple_GET_ITEM(entry, 3);
        if (Py_TYPE(event) != event_type) {
            Py_DECREF(entry);
            PyErr_SetString(PyExc_TypeError,
                            "heap entry does not carry an Event");
            status = -1;
            break;
        }
        if (SLOT(event, off_cancelled) == Py_True) {
            /* Stale entry from cancel(): consume, maybe recycle. */
            Py_INCREF(event);
            Py_DECREF(entry);
            maybe_recycle(event, free_list);
            Py_DECREF(event);
            continue;
        }
        if (has_until) {
            double t = PyFloat_AsDouble(time_obj);
            if (t == -1.0 && PyErr_Occurred()) {
                Py_DECREF(entry);
                status = -1;
                break;
            }
            if (t > until || (exclusive && t == until)) {
                /* First live event past the horizon: push back and
                 * stop — the reference loop's pop-then-undo. */
                if (heap_push(heap, entry) < 0)
                    status = -1;
                Py_DECREF(entry);
                break;
            }
        }
        /* Dispatch.  Bookkeeping before the callback, exactly like
         * the reference loop: live count, clock, stale-marking. */
        Py_INCREF(event);
        callback = SLOT(event, off_cb);
        Py_XINCREF(callback);
        cb_args = SLOT(event, off_args);
        Py_XINCREF(cb_args);
        if (callback == NULL || cb_args == NULL
            || adjust_live(queue, -1) < 0) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError,
                                "Event callback/args slot unset");
            Py_XDECREF(callback);
            Py_XDECREF(cb_args);
            Py_DECREF(event);
            Py_DECREF(entry);
            status = -1;
            break;
        }
        Py_INCREF(time_obj);
        old = SLOT(sim, off_now);
        SLOT(sim, off_now) = time_obj;
        Py_XDECREF(old);
        dispatched += 1;
        Py_INCREF(Py_True);
        old = SLOT(event, off_cancelled);
        SLOT(event, off_cancelled) = Py_True;
        Py_XDECREF(old);
        /* Release the entry tuple before the refcount-gated recycle
         * so "no external holder" is exactly Py_REFCNT(event) == 1. */
        Py_DECREF(entry);
        res = PyObject_Call(callback, cb_args, NULL);
        Py_DECREF(callback);
        Py_DECREF(cb_args);
        if (res == NULL) {
            Py_DECREF(event);
            status = -1;
            break;
        }
        Py_DECREF(res);
        maybe_recycle(event, free_list);
        Py_DECREF(event);
    }

    if (status == 0 && has_until) {
        double now = PyFloat_AsDouble(SLOT(sim, off_now));
        if (now == -1.0 && PyErr_Occurred())
            status = -1;
        else if (now < until) {
            /* Advance the clock to the horizon, assigning the caller's
             * object verbatim — reference semantics. */
            PyObject *old = SLOT(sim, off_now);
            Py_INCREF(until_obj);
            SLOT(sim, off_now) = until_obj;
            Py_XDECREF(old);
        }
    }
    if (writeback_dispatched(sim, dispatched) < 0 && status == 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Simulator._dispatched is not an int");
        status = -1;
    }
    if (status < 0)
        return NULL;
    result = SLOT(sim, off_now);
    Py_INCREF(result);
    return result;
}

PyDoc_STRVAR(drain_doc,
"drain(sim, queue, until, exclusive) -> float\n\
\n\
Dispatch pending events in (time, priority, seq) order up to the\n\
horizon; the C core of the 'compiled' kernel backend.  Returns the\n\
clock when the loop stopped.  Internal: call Simulator.run() instead.");

static PyMethodDef ckernel_methods[] = {
    {"drain", drain, METH_VARARGS, drain_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(ckernel_doc,
"C dispatch core for the 'compiled' kernel backend (internal).");

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._ckernel",
    ckernel_doc,
    -1,
    ckernel_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&ckernel_module);
}
