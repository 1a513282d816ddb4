/* Compiled ``accel`` event core — a C implementation of the kernel
 * contract defined by repro.sim.kernel.Simulator.
 *
 * The semantics (two-tier queue, same-cycle FIFO dispatch ring,
 * delivery-phase (src, seq) ordering, flattened resume trampoline,
 * error messages) are replicated exactly; repro.sim.kernel.Simulator
 * itself is the executable specification and the automatic (logged)
 * fallback when this extension is not built.  Parity is enforced
 * byte-identically by tools/capture_parity.py --verify --backend accel
 * and by the backend-conformance test suite.
 *
 * What the C restructuring buys over the reference loop:
 *  - the dispatch ring is a C circular buffer of (fn, args) tuples (a
 *    small `_ring` view object keeps the external append/__bool__
 *    contract for the primitives);
 *  - future timestamps live in a C int64 binary heap; buckets and the
 *    delivery phase stay Python lists inside dicts, driven via the C
 *    API (no interpreter dispatch on the hot path);
 *  - ``sim._resume`` is one stable bound callable; the run loop
 *    pointer-compares each event's callable against it and runs the
 *    resume trampoline inline — PyIter_Send drives the generator, so a
 *    normal resume never materializes a StopIteration;
 *  - Timeout arming is type-specialized inside the trampoline.
 *
 * Python Process/Timeout/primitives objects are shared with the
 * reference backend (imported at module init), so model code and the
 * primitives module need no backend awareness at all.
 *
 * Mirror rule: a compiled path replicates its Python twin's events
 * *and* its object lifetimes.  Where the Python coding drops a
 * back-reference so that per-event objects die by refcount, the C
 * path drops the same reference at the same point: a finished or
 * failed process's ``_rn`` (proc_finish / proc_fail) and a delivered
 * reply's ``reply_to`` (deliver_fast).  Only machine structure may be
 * cyclic (docs/performance.md, "Garbage-free hot path");
 * tests/sim/test_garbage_free.py checks both backends.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>   /* T_OBJECT_EX / READONLY member flags */
#include <stddef.h>

/* ------------------------------------------------------------------ */
/* module-level handles resolved at import time                        */
/* ------------------------------------------------------------------ */

static PyObject *g_SimulationError;   /* repro.sim.kernel.SimulationError */
static PyObject *g_Process;           /* repro.sim.process.Process        */
static PyTypeObject *g_ProcessType;
static PyTypeObject *g_TimeoutType;   /* repro.sim.primitives.Timeout     */
static PyTypeObject *g_GateWaitType, *g_AcquireType,
    *g_QueueGetType, *g_JoinType;
static PyTypeObject *g_SignalType, *g_GateType, *g_ResourceType,
    *g_FifoQueueType;
static PyObject *g_empty_str, *g_one;

/* interned attribute names */
static PyObject *s_done, *s_gen, *s_stack, *s_rn, *s_finish, *s_fail,
    *s_arm, *s_throw, *s_name, *s_result, *s_delay, *s_value,
    *s_append, *s_popleft, *s_dunder_name;

/* ---- model fast-path state (armed lazily via arm_model) ---- */

/* Types and callables of the model layer (fabric / coherence).  They
 * live in modules that import this one, so they cannot be
 * resolved at module init; ``arm_model`` binds them on first accel
 * machine construction (see repro.sim.backends.model). */
static int g_model_fast = 0;
static PyTypeObject *g_MsgType, *g_HubType, *g_CtrlType, *g_CacheType,
    *g_LineType, *g_LineMetaType, *g_StatsType;
static PyObject *g_WordUpdateKind, *g_InvalidState, *g_MsgIds;
static PyObject *g_NetSend, *g_NetDeliver, *g_HubReceive;
/* Python twins of the compiled model coroutines (fallback targets) */
static PyObject *g_EgressSendPy, *g_CtrlLoadPy, *g_CtrlInvPy;
static PyObject *g_ServeGetSPy, *g_FinishCleanPy;
static PyObject *g_InvAckKind, *g_InvAckBytes;
static PyObject *g_DataSKind, *g_DataSBytes;
static PyObject *g_DirExclusive, *g_DirShared;
static PyTypeObject *g_HomeType, *g_DirEntType, *g_DramType;
static long long g_line_bytes, g_word_bytes;

/* compiled model coroutine (state machines for the protocol hot paths);
 * defined after the model helpers, forward-declared for the trampoline */
static PyTypeObject Coro_Type;

/* interned names used by the model fast paths */
static PyObject *s_sim, *s_send, *s_stats, *s_config, *s_handlers,
    *s_send_hooks, *s_delay_injector, *s_reorder_injector,
    *s_inj_seq, *s_route_cache, *s_deliver, *s_counts, *s_retransmits,
    *s_router_contention, *s_link_contention, *s_is_reply,
    *s_packet_bytes, *s_try_fire, *s_pulse, *s_line_changed,
    *s_updates, *s_apply_word_update, *s_net, *s_carries_line,
    *s_load_miss, *s_fill_l1, *s_exclusive, *s_poisoned,
    *s_entry, *s_read_line, *s_spawn, *s_get_s_owned;

/* --------------------------------------------------------------------
 * Slot-offset specialization.
 *
 * Process and the waitable primitives are plain Python classes with
 * __slots__ shared verbatim with the reference backend.  Their slot
 * descriptors expose fixed struct offsets, so the trampoline can read
 * and write e.g. ``proc.gen`` or ``resource._busy`` as one pointer
 * dereference instead of a descriptor dispatch — and can replicate the
 * whole body of the hot ``_arm``/``_finish`` methods without entering
 * the interpreter.  Resolution happens once at import; if any slot is
 * missing (the Python classes were refactored), ``g_fast`` stays 0 and
 * every access falls back to the generic attribute protocol, keeping
 * behaviour — if not speed — intact.
 * ------------------------------------------------------------------ */

static int g_fast = 0;

/* Process */
static Py_ssize_t off_p_gen, off_p_stack, off_p_name, off_p_sim,
    off_p_done, off_p_result, off_p_error, off_p_waiters, off_p_rn;
/* JoinCmd / GateWait / Acquire / QueueGet (the yielded cmds) */
static Py_ssize_t off_j_target, off_gw_gate, off_a_resource,
    off_qg_queue;
/* Signal / Gate / Resource / FifoQueue (the cmds' referents) */
static Py_ssize_t off_s_waiters, off_s_fired, off_s_value;
static Py_ssize_t off_g_waiters, off_g_open, off_g_value;
static Py_ssize_t off_r_busy, off_r_queue, off_r_grants, off_r_acquired,
    off_r_sim;
static Py_ssize_t off_fq_items, off_fq_getters;

/* model-layer offsets (resolved by arm_model, gate g_model_fast) */
static Py_ssize_t off_m_kind, off_m_src, off_m_dst, off_m_addr, off_m_value,
    off_m_payload, off_m_reply_to, off_m_requester, off_m_dst_cpu,
    off_m_retransmit, off_m_size, off_m_id;
static Py_ssize_t off_h_routes, off_h_controllers, off_h_net;
static Py_ssize_t off_h_egress, off_h_t_update, off_h_t_ctrl, off_h_t_line;
static Py_ssize_t off_c_l1, off_c_l2, off_c_resv, off_c_meta, off_c_inflight;
static Py_ssize_t off_c_hub, off_c_sim, off_c_node, off_c_cpu,
    off_c_t_l1, off_c_t_l2;
static Py_ssize_t off_sc_sets, off_sc_nsets, off_sc_lb, off_sc_wu;
static Py_ssize_t off_sc_stamp, off_sc_hits, off_sc_misses, off_sc_inval;
static Py_ssize_t off_cl_state, off_cl_words, off_cl_lastuse;
static Py_ssize_t off_lm_version, off_lm_gate;
static Py_ssize_t off_r_acquire;
static Py_ssize_t off_r_busy_cycles;
static Py_ssize_t off_he_dram, off_he_backing, off_he_dir, off_he_sim,
    off_he_hub, off_he_node, off_he_lb, off_he_gets, off_he_tdir,
    off_he_name_rf;
static Py_ssize_t off_de_line, off_de_state, off_de_mask, off_de_owner,
    off_de_busy, off_de_version;
static Py_ssize_t off_dr_chan, off_dr_lineacc, off_dr_t_occ, off_dr_t_res,
    off_dr_resid;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* truth of a slot value that is almost always a bool singleton */
static inline int
slot_truth(PyObject *v)
{
    if (v == Py_True)
        return 1;
    if (v == Py_False || v == NULL)
        return 0;
    return PyObject_IsTrue(v);
}

/* store an owned reference into a slot, dropping the old value */
static inline void
slot_store(PyObject *obj, Py_ssize_t off, PyObject *value_owned)
{
    PyObject *old = SLOT(obj, off);
    SLOT(obj, off) = value_owned;
    Py_XDECREF(old);
}

static Py_ssize_t
slot_off(PyObject *cls, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t off = -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m->type == T_OBJECT_EX)
            off = m->offset;
    }
    Py_DECREF(descr);
    return off;
}

/* ------------------------------------------------------------------ */
/* EventRing: the same-cycle FIFO dispatch ring                        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject **buf;
    Py_ssize_t head;   /* index of the oldest element */
    Py_ssize_t len;
    Py_ssize_t cap;    /* power of two */
} RingObject;

static PyTypeObject Ring_Type;

static int
ring_grow(RingObject *r)
{
    Py_ssize_t newcap = r->cap ? r->cap * 2 : 64;
    PyObject **nb = PyMem_New(PyObject *, newcap);
    if (nb == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < r->len; i++)
        nb[i] = r->buf[(r->head + i) & (r->cap - 1)];
    PyMem_Free(r->buf);
    r->buf = nb;
    r->head = 0;
    r->cap = newcap;
    return 0;
}

/* steals no reference: increfs ev */
static int
ring_push(RingObject *r, PyObject *ev)
{
    if (r->len == r->cap && ring_grow(r) < 0)
        return -1;
    r->buf[(r->head + r->len) & (r->cap - 1)] = Py_NewRef(ev);
    r->len++;
    return 0;
}

/* returns an owned reference; caller must ensure len > 0 */
static PyObject *
ring_popleft(RingObject *r)
{
    PyObject *ev = r->buf[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->len--;
    return ev;
}

static PyObject *
Ring_append(RingObject *r, PyObject *ev)
{
    if (ring_push(r, ev) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static Py_ssize_t
Ring_length(RingObject *r)
{
    return r->len;
}

static int
Ring_traverse(RingObject *r, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < r->len; i++)
        Py_VISIT(r->buf[(r->head + i) & (r->cap - 1)]);
    return 0;
}

static int
Ring_clear_impl(RingObject *r)
{
    for (Py_ssize_t i = 0; i < r->len; i++) {
        PyObject *ev = r->buf[(r->head + i) & (r->cap - 1)];
        r->buf[(r->head + i) & (r->cap - 1)] = NULL;
        Py_XDECREF(ev);
    }
    r->len = 0;
    r->head = 0;
    return 0;
}

static void
Ring_dealloc(RingObject *r)
{
    PyObject_GC_UnTrack(r);
    Ring_clear_impl(r);
    PyMem_Free(r->buf);
    Py_TYPE(r)->tp_free((PyObject *)r);
}

static PyMethodDef Ring_methods[] = {
    {"append", (PyCFunction)Ring_append, METH_O,
     "Append one (fn, args) event tuple."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods Ring_as_sequence = {
    .sq_length = (lenfunc)Ring_length,
};

static PyTypeObject Ring_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.backends._accel_core.EventRing",
    .tp_basicsize = sizeof(RingObject),
    .tp_dealloc = (destructor)Ring_dealloc,
    .tp_as_sequence = &Ring_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Same-cycle FIFO dispatch ring (C circular buffer).",
    .tp_traverse = (traverseproc)Ring_traverse,
    .tp_clear = (inquiry)Ring_clear_impl,
    .tp_methods = Ring_methods,
};

static RingObject *
ring_new(void)
{
    RingObject *r = PyObject_GC_New(RingObject, &Ring_Type);
    if (r == NULL)
        return NULL;
    r->buf = NULL;
    r->head = r->len = r->cap = 0;
    PyObject_GC_Track(r);
    return r;
}

/* ------------------------------------------------------------------ */
/* AccelSimulator                                                      */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long now;
    long long events_dispatched;
    char running;
    RingObject *ring;
    PyObject *buckets;     /* dict: when (int) -> list of events        */
    PyObject *phase;       /* dict: when (int) -> list of (key, event)  */
    PyObject *pool;        /* list of recycled bucket lists             */
    PyObject *active;      /* set of live processes                     */
    PyObject *resume_cb;   /* the one stable bound ``_resume`` callable */
    long long *heap;       /* min-heap of distinct future timestamps    */
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
} SimObject;

static PyTypeObject Sim_Type;

/* ---- int64 binary heap ---- */

static int
heap_push(SimObject *s, long long when)
{
    if (s->heap_len == s->heap_cap) {
        Py_ssize_t newcap = s->heap_cap ? s->heap_cap * 2 : 64;
        long long *nh = PyMem_Resize(s->heap, long long, newcap);
        if (nh == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        s->heap = nh;
        s->heap_cap = newcap;
    }
    Py_ssize_t i = s->heap_len++;
    long long *h = s->heap;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h[parent] <= when)
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = when;
    return 0;
}

static void
heap_pop(SimObject *s)
{
    long long *h = s->heap;
    Py_ssize_t n = --s->heap_len;
    if (n == 0)
        return;
    long long last = h[n];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && h[child + 1] < h[child])
            child++;
        if (last <= h[child])
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = last;
}

/* ---- list helpers ---- */

/* pop the last element of a list; returns owned ref or NULL (empty/err) */
static PyObject *
list_pop_last(PyObject *list)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    if (n == 0)
        return NULL;
    PyObject *item = Py_NewRef(PyList_GET_ITEM(list, n - 1));
    if (PyList_SetSlice(list, n - 1, n, NULL) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    return item;
}

/* ---- future-event queue ---- */

/* append ev to the bucket at ``when``, creating it (pool-recycled) and
 * registering the timestamp on the heap if absent */
static int
push_future(SimObject *self, long long when, PyObject *ev)
{
    PyObject *when_obj = PyLong_FromLongLong(when);
    if (when_obj == NULL)
        return -1;
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, when_obj);
    if (bucket != NULL) {
        int r = PyList_Append(bucket, ev);
        Py_DECREF(when_obj);
        return r;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(when_obj);
        return -1;
    }
    bucket = list_pop_last(self->pool);
    if (bucket == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(when_obj);
            return -1;
        }
        bucket = PyList_New(0);
        if (bucket == NULL) {
            Py_DECREF(when_obj);
            return -1;
        }
    }
    if (PyDict_SetItem(self->buckets, when_obj, bucket) < 0 ||
            heap_push(self, when) < 0 ||
            PyList_Append(bucket, ev) < 0) {
        Py_DECREF(bucket);
        Py_DECREF(when_obj);
        return -1;
    }
    Py_DECREF(bucket);
    Py_DECREF(when_obj);
    return 0;
}

/* ---- resume trampoline ---- */

/* append a "resume ``proc`` with ``value``" event to the ring.  A
 * None-valued wake-up reuses the process's interned ``_rn`` tuple; a
 * finished process has dropped it (``_rn`` is None, see
 * Process._finish), so a fresh tuple is built, just like the Python
 * Signal/Gate/join wake-ups always do. */
static int
push_resume(SimObject *self, PyObject *proc, PyObject *value)
{
    if (value == Py_None && g_fast && Py_IS_TYPE(proc, g_ProcessType)) {
        PyObject *rn = SLOT(proc, off_p_rn);
        if (rn != NULL && rn != Py_None)
            return ring_push(self->ring, rn);
    }
    PyObject *args = PyTuple_Pack(2, proc, value);
    if (args == NULL)
        return -1;
    PyObject *ev = PyTuple_Pack(2, self->resume_cb, args);
    Py_DECREF(args);
    if (ev == NULL)
        return -1;
    int r = ring_push(self->ring, ev);
    Py_DECREF(ev);
    return r;
}

/* owned ``waiter._rn`` — a process's interned resume-with-None event,
 * or an egress wave's grant callback — for the spawn / Timeout /
 * Resource-grant wake-ups, which the Python primitives also take
 * straight from ``_rn``.  Only live waiters are woken there, so this
 * is never the None a finished process leaves behind. */
static PyObject *
waiter_rn(PyObject *waiter)
{
    PyObject *rn = NULL;
    if (g_fast && Py_IS_TYPE(waiter, g_ProcessType))
        rn = SLOT(waiter, off_p_rn);
    return rn != NULL ? Py_NewRef(rn) : PyObject_GetAttr(waiter, s_rn);
}

/* Process._finish: mark done, store the result, drop the interned
 * ``_rn`` (it points back at the process), wake joiners */
static int
proc_finish(SimObject *self, PyObject *proc, PyObject *result)
{
    if (!(g_fast && Py_IS_TYPE(proc, g_ProcessType))) {
        PyObject *r = PyObject_CallMethodOneArg(proc, s_finish, result);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    slot_store(proc, off_p_done, Py_NewRef(Py_True));
    slot_store(proc, off_p_result, Py_NewRef(result));
    slot_store(proc, off_p_rn, Py_NewRef(Py_None));
    PyObject *waiters = SLOT(proc, off_p_waiters);
    if (waiters != NULL && PyList_CheckExact(waiters)
            && PyList_GET_SIZE(waiters) > 0) {
        PyObject *empty = PyList_New(0);
        if (empty == NULL)
            return -1;
        SLOT(proc, off_p_waiters) = empty;   /* we now own ``waiters`` */
        Py_ssize_t n = PyList_GET_SIZE(waiters);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (push_resume(self, PyList_GET_ITEM(waiters, i), result) < 0) {
                Py_DECREF(waiters);
                return -1;
            }
        }
        Py_DECREF(waiters);
    }
    return 0;
}

/* Process._fail: mark done, record the error, drop ``_rn``, abandon
 * joiners */
static int
proc_fail(PyObject *proc, PyObject *error)
{
    if (!(g_fast && Py_IS_TYPE(proc, g_ProcessType))) {
        PyObject *r = PyObject_CallMethodOneArg(proc, s_fail, error);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    PyObject *empty = PyList_New(0);
    if (empty == NULL)
        return -1;
    slot_store(proc, off_p_done, Py_NewRef(Py_True));
    slot_store(proc, off_p_error, Py_NewRef(error));
    slot_store(proc, off_p_rn, Py_NewRef(Py_None));
    slot_store(proc, off_p_waiters, empty);
    return 0;
}

static int
proc_set_gen(PyObject *proc, int fast, PyObject *newgen)
{
    if (fast) {
        slot_store(proc, off_p_gen, Py_NewRef(newgen));
        return 0;
    }
    return PyObject_SetAttr(proc, s_gen, newgen);
}

static int
resume_impl(SimObject *self, PyObject *proc, PyObject *value_in,
            PyObject *exc_in)
{
    int fast = g_fast && Py_IS_TYPE(proc, g_ProcessType);
    PyObject *gen, *stack;
    if (fast) {
        int is_done = slot_truth(SLOT(proc, off_p_done));
        if (is_done < 0)
            return -1;
        if (is_done)
            return 0;
        gen = Py_XNewRef(SLOT(proc, off_p_gen));
        stack = Py_XNewRef(SLOT(proc, off_p_stack));
        if (gen == NULL || stack == NULL) {
            Py_XDECREF(gen);
            Py_XDECREF(stack);
            PyErr_Format(PyExc_AttributeError,
                         "process %R has unset gen/stack slots", proc);
            return -1;
        }
    }
    else {
        PyObject *done = PyObject_GetAttr(proc, s_done);
        if (done == NULL)
            return -1;
        int is_done = PyObject_IsTrue(done);
        Py_DECREF(done);
        if (is_done < 0)
            return -1;
        if (is_done)
            return 0;
        gen = PyObject_GetAttr(proc, s_gen);
        if (gen == NULL)
            return -1;
        stack = PyObject_GetAttr(proc, s_stack);
        if (stack == NULL) {
            Py_DECREF(gen);
            return -1;
        }
    }
    PyObject *value = Py_NewRef(value_in);
    PyObject *exc = (exc_in != NULL && exc_in != Py_None)
        ? Py_NewRef(exc_in) : NULL;
    int retcode = -1;

    for (;;) {
        PyObject *cmd = NULL;
        PyObject *retval = NULL;   /* owned iff the generator returned */
        int finished = 0;

        if (exc != NULL) {
            PyObject *res = PyObject_CallMethodOneArg(gen, s_throw, exc);
            Py_CLEAR(exc);
            if (res != NULL) {
                cmd = res;
            }
            else if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                PyObject *t, *v, *tb;
                PyErr_Fetch(&t, &v, &tb);
                PyErr_NormalizeException(&t, &v, &tb);
                retval = v ? PyObject_GetAttr(v, s_value) : Py_NewRef(Py_None);
                Py_XDECREF(t);
                Py_XDECREF(v);
                Py_XDECREF(tb);
                if (retval == NULL)
                    goto bail;
                finished = 1;
            }
            /* other exceptions: handled by the !cmd branch below */
        }
        else {
            PyObject *res;
            PySendResult sr = PyIter_Send(gen, value, &res);
            if (sr == PYGEN_NEXT) {
                cmd = res;
            }
            else if (sr == PYGEN_RETURN) {
                retval = res;
                finished = 1;
            }
            /* PYGEN_ERROR: handled below */
        }

        if (finished) {
            PyObject *caller = list_pop_last(stack);
            if (caller != NULL) {
                /* inner coroutine returned: resume its caller inline */
                if (proc_set_gen(proc, fast, caller) < 0) {
                    Py_DECREF(caller);
                    Py_DECREF(retval);
                    goto bail;
                }
                Py_SETREF(gen, caller);
                Py_SETREF(value, retval);
                continue;
            }
            if (PyErr_Occurred()) {
                Py_DECREF(retval);
                goto bail;
            }
            int fr = proc_finish(self, proc, retval);
            Py_DECREF(retval);
            if (fr < 0)
                goto bail;
            if (PySet_Discard(self->active, proc) < 0)
                goto bail;
            retcode = 0;
            goto bail;
        }

        if (cmd == NULL) {
            /* the generator raised: propagate into the caller (its
             * try/finally must run) or fail the process */
            PyObject *t, *v, *tb;
            PyErr_Fetch(&t, &v, &tb);
            PyErr_NormalizeException(&t, &v, &tb);
            if (tb != NULL && v != NULL)
                PyException_SetTraceback(v, tb);
            PyObject *caller = list_pop_last(stack);
            if (caller != NULL) {
                if (proc_set_gen(proc, fast, caller) < 0) {
                    Py_DECREF(caller);
                    Py_XDECREF(t);
                    Py_XDECREF(v);
                    Py_XDECREF(tb);
                    goto bail;
                }
                Py_SETREF(gen, caller);
                exc = v ? v : Py_NewRef(Py_None);
                Py_XDECREF(t);
                Py_XDECREF(tb);
                continue;
            }
            if (PyErr_Occurred()) {   /* list_pop_last failed */
                Py_XDECREF(t);
                Py_XDECREF(v);
                Py_XDECREF(tb);
                goto bail;
            }
            if (proc_fail(proc, v ? v : Py_None) < 0) {
                Py_XDECREF(t);
                Py_XDECREF(v);
                Py_XDECREF(tb);
                goto bail;
            }
            (void)PySet_Discard(self->active, proc);
            PyErr_Restore(t, v, tb);   /* re-raise at top level */
            goto bail;
        }

        /* the generator yielded ``cmd`` */
        if (Py_IS_TYPE(cmd, &PyGen_Type) || Py_IS_TYPE(cmd, &Coro_Type)) {
            /* sub-call: push the caller, drive the inner generator */
            if (PyList_Append(stack, gen) < 0 ||
                    proc_set_gen(proc, fast, cmd) < 0) {
                Py_DECREF(cmd);
                goto bail;
            }
            Py_SETREF(gen, cmd);
            Py_SETREF(value, Py_NewRef(Py_None));
            continue;
        }
        if (Py_IS_TYPE(cmd, g_TimeoutType)) {
            /* inlined Timeout._arm */
            PyObject *delay = PyObject_GetAttr(cmd, s_delay);
            if (delay == NULL) {
                Py_DECREF(cmd);
                goto bail;
            }
            if (PyLong_CheckExact(delay)) {
                int overflow = 0;
                long long d = PyLong_AsLongLongAndOverflow(delay, &overflow);
                if (d == -1 && !overflow && PyErr_Occurred()) {
                    Py_DECREF(delay);
                    Py_DECREF(cmd);
                    goto bail;
                }
                if (!overflow && d >= 0) {
                    PyObject *rn = waiter_rn(proc);
                    if (rn == NULL) {
                        Py_DECREF(delay);
                        Py_DECREF(cmd);
                        goto bail;
                    }
                    int r = (d > 0)
                        ? push_future(self, self->now + d, rn)
                        : ring_push(self->ring, rn);
                    Py_DECREF(rn);
                    Py_DECREF(delay);
                    Py_DECREF(cmd);
                    if (r < 0)
                        goto bail;
                    retcode = 0;
                    goto bail;
                }
                if (!overflow) {
                    /* negative delay: same error schedule() raises */
                    PyErr_Format(g_SimulationError,
                                 "negative delay %R", delay);
                    Py_DECREF(delay);
                    Py_DECREF(cmd);
                    goto bail;
                }
            }
            Py_DECREF(delay);
            /* non-int/overflowing delay: generic _arm path below */
        }
        if (g_fast) {
            /* Exact-type replicas of the hot ``_arm`` bodies.  Any
             * missing slot or unexpected referent type falls through to
             * the generic attribute-protocol path below, which runs the
             * Python ``_arm`` unchanged. */
            PyTypeObject *ct = Py_TYPE(cmd);
            if (ct == g_SignalType || ct == g_GateWaitType) {
                /* Signal (its own wait primitive)/GateWait: already
                 * fired/open resumes now with the stored value,
                 * otherwise park on the waiter list */
                int is_wait = (ct == g_SignalType);
                PyObject *src = is_wait ? cmd : SLOT(cmd, off_gw_gate);
                if (src != NULL &&
                        Py_IS_TYPE(src, is_wait ? g_SignalType : g_GateType)) {
                    PyObject *waiters = SLOT(
                        src, is_wait ? off_s_waiters : off_g_waiters);
                    PyObject *val = SLOT(
                        src, is_wait ? off_s_value : off_g_value);
                    if (waiters != NULL && PyList_CheckExact(waiters)
                            && val != NULL) {
                        int fired = slot_truth(SLOT(
                            src, is_wait ? off_s_fired : off_g_open));
                        if (fired < 0) {
                            Py_DECREF(cmd);
                            goto bail;
                        }
                        int r = fired ? push_resume(self, proc, val)
                                      : PyList_Append(waiters, proc);
                        Py_DECREF(cmd);
                        if (r < 0)
                            goto bail;
                        retcode = 0;
                        goto bail;
                    }
                }
            }
            else if (ct == g_JoinType) {
                PyObject *target = SLOT(cmd, off_j_target);
                if (target != NULL && Py_IS_TYPE(target, g_ProcessType)) {
                    PyObject *waiters = SLOT(target, off_p_waiters);
                    PyObject *res = SLOT(target, off_p_result);
                    if (waiters != NULL && PyList_CheckExact(waiters)
                            && res != NULL) {
                        int done = slot_truth(SLOT(target, off_p_done));
                        if (done < 0) {
                            Py_DECREF(cmd);
                            goto bail;
                        }
                        int r = done ? push_resume(self, proc, res)
                                     : PyList_Append(waiters, proc);
                        Py_DECREF(cmd);
                        if (r < 0)
                            goto bail;
                        retcode = 0;
                        goto bail;
                    }
                }
            }
            else if (ct == g_AcquireType) {
                PyObject *res = SLOT(cmd, off_a_resource);
                if (res != NULL && Py_IS_TYPE(res, g_ResourceType)) {
                    PyObject *grants = SLOT(res, off_r_grants);
                    PyObject *queue = SLOT(res, off_r_queue);
                    if (grants != NULL && queue != NULL) {
                        /* release() needs the owning sim back */
                        slot_store(res, off_r_sim,
                                   Py_NewRef((PyObject *)self));
                        int busy = slot_truth(SLOT(res, off_r_busy));
                        if (busy < 0) {
                            Py_DECREF(cmd);
                            goto bail;
                        }
                        if (!busy) {
                            PyObject *ng = PyNumber_Add(grants, g_one);
                            if (ng == NULL) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                            PyObject *acq = PyLong_FromLongLong(self->now);
                            if (acq == NULL) {
                                Py_DECREF(ng);
                                Py_DECREF(cmd);
                                goto bail;
                            }
                            slot_store(res, off_r_busy, Py_NewRef(Py_True));
                            slot_store(res, off_r_grants, ng);
                            slot_store(res, off_r_acquired, acq);
                            if (push_resume(self, proc, Py_None) < 0) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                        }
                        else {
                            PyObject *r = PyObject_CallMethodOneArg(
                                queue, s_append, proc);
                            if (r == NULL) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                            Py_DECREF(r);
                        }
                        Py_DECREF(cmd);
                        retcode = 0;
                        goto bail;
                    }
                }
            }
            else if (ct == g_QueueGetType) {
                PyObject *q = SLOT(cmd, off_qg_queue);
                if (q != NULL && Py_IS_TYPE(q, g_FifoQueueType)) {
                    PyObject *items = SLOT(q, off_fq_items);
                    PyObject *getters = SLOT(q, off_fq_getters);
                    if (items != NULL && getters != NULL) {
                        int nonempty = PyObject_IsTrue(items);
                        if (nonempty < 0) {
                            Py_DECREF(cmd);
                            goto bail;
                        }
                        if (nonempty) {
                            PyObject *item = PyObject_CallMethodNoArgs(
                                items, s_popleft);
                            if (item == NULL) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                            int r = push_resume(self, proc, item);
                            Py_DECREF(item);
                            if (r < 0) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                        }
                        else {
                            PyObject *r = PyObject_CallMethodOneArg(
                                getters, s_append, proc);
                            if (r == NULL) {
                                Py_DECREF(cmd);
                                goto bail;
                            }
                            Py_DECREF(r);
                        }
                        Py_DECREF(cmd);
                        retcode = 0;
                        goto bail;
                    }
                }
            }
        }
        {
            PyObject *r = PyObject_CallMethodObjArgs(
                cmd, s_arm, (PyObject *)self, proc, NULL);
            if (r == NULL) {
                if (PyErr_ExceptionMatches(PyExc_AttributeError)) {
                    PyErr_Clear();
                    PyObject *pname = PyObject_GetAttr(proc, s_name);
                    if (pname != NULL) {
                        PyErr_Format(
                            g_SimulationError,
                            "process %R yielded non-primitive %R; yield "
                            "Timeout/Signal/Acquire/... or use 'yield from' "
                            "for sub-coroutines", pname, cmd);
                        Py_DECREF(pname);
                    }
                }
                Py_DECREF(cmd);
                goto bail;
            }
            Py_DECREF(r);
            Py_DECREF(cmd);
            retcode = 0;
            goto bail;
        }
    }

bail:
    Py_XDECREF(exc);
    Py_DECREF(value);
    Py_DECREF(gen);
    Py_DECREF(stack);
    return retcode;
}

/* the Python-visible ``sim._resume(proc, value, exc=None)`` */
static PyObject *
sim_resume_py(PyObject *self_obj, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "_resume expects (proc, value[, exc])");
        return NULL;
    }
    SimObject *self = (SimObject *)self_obj;
    PyObject *exc = (nargs == 3) ? args[2] : NULL;
    if (resume_impl(self, args[0], args[1], exc) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef resume_def = {
    "_resume", (PyCFunction)(void (*)(void))sim_resume_py,
    METH_FASTCALL,
    "Advance ``proc`` by one step, interpreting what it yields.",
};

/* ---- scheduling methods ---- */

static PyObject *
build_event(PyObject *fn, PyObject *const *rest, Py_ssize_t nrest)
{
    PyObject *args_t = PyTuple_New(nrest);
    if (args_t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < nrest; i++)
        PyTuple_SET_ITEM(args_t, i, Py_NewRef(rest[i]));
    PyObject *ev = PyTuple_Pack(2, fn, args_t);
    Py_DECREF(args_t);
    return ev;
}

/* classify a delay/when operand relative to ``ref``:
 * 1 = greater, 0 = equal, -1 = less, -2 = error */
static int
cmp_to_ref(PyObject *obj, long long ref)
{
    if (PyLong_CheckExact(obj)) {
        int overflow = 0;
        long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
        if (v == -1 && !overflow && PyErr_Occurred())
            return -2;
        if (overflow)
            return overflow > 0 ? 1 : -1;
        return (v > ref) ? 1 : (v == ref) ? 0 : -1;
    }
    PyObject *ref_obj = PyLong_FromLongLong(ref);
    if (ref_obj == NULL)
        return -2;
    int eq = PyObject_RichCompareBool(obj, ref_obj, Py_EQ);
    if (eq < 0) {
        Py_DECREF(ref_obj);
        return -2;
    }
    if (eq) {
        Py_DECREF(ref_obj);
        return 0;
    }
    int gt = PyObject_RichCompareBool(obj, ref_obj, Py_GT);
    Py_DECREF(ref_obj);
    if (gt < 0)
        return -2;
    return gt ? 1 : -1;
}

static long long
as_longlong(PyObject *obj, int *err)
{
    *err = 0;
    if (PyLong_CheckExact(obj)) {
        long long v = PyLong_AsLongLong(obj);
        if (v == -1 && PyErr_Occurred())
            *err = 1;
        return v;
    }
    PyObject *as_int = PyNumber_Long(obj);
    if (as_int == NULL) {
        *err = 1;
        return -1;
    }
    long long v = PyLong_AsLongLong(as_int);
    Py_DECREF(as_int);
    if (v == -1 && PyErr_Occurred())
        *err = 1;
    return v;
}

static PyObject *
sim_schedule(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule expects (delay, fn, *args)");
        return NULL;
    }
    PyObject *delay = args[0];
    int c = cmp_to_ref(delay, 0);
    if (c == -2)
        return NULL;
    if (c < 0) {
        PyErr_Format(g_SimulationError, "negative delay %R", delay);
        return NULL;
    }
    PyObject *ev = build_event(args[1], args + 2, nargs - 2);
    if (ev == NULL)
        return NULL;
    int r;
    if (c == 0) {
        r = ring_push(self->ring, ev);
    }
    else {
        int err;
        long long d = as_longlong(delay, &err);
        if (err) {
            Py_DECREF(ev);
            return NULL;
        }
        r = push_future(self, self->now + d, ev);
    }
    Py_DECREF(ev);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
sim_schedule_at(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at expects (when, fn, *args)");
        return NULL;
    }
    PyObject *when = args[0];
    int c = cmp_to_ref(when, self->now);
    if (c == -2)
        return NULL;
    if (c < 0) {
        PyErr_Format(g_SimulationError,
                     "cannot schedule in the past (%S < %lld)",
                     when, self->now);
        return NULL;
    }
    PyObject *ev = build_event(args[1], args + 2, nargs - 2);
    if (ev == NULL)
        return NULL;
    int r;
    if (c == 0) {
        r = ring_push(self->ring, ev);
    }
    else {
        int err;
        long long w = as_longlong(when, &err);
        if (err) {
            Py_DECREF(ev);
            return NULL;
        }
        r = push_future(self, w, ev);
    }
    Py_DECREF(ev);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
sim_push_future(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_push_future expects (when, ev)");
        return NULL;
    }
    int err;
    long long when = as_longlong(args[0], &err);
    if (err)
        return NULL;
    if (push_future(self, when, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* delivery-phase push shared by the method below and the compiled
 * fabric send: bucket registration plus a ``(key, ev)`` phase entry */
static int
push_delivery_c(SimObject *self, long long when, PyObject *key, PyObject *ev)
{
    if (when <= self->now) {
        PyErr_Format(g_SimulationError,
                     "delivery must be in the future (%lld <= %lld)",
                     when, self->now);
        return -1;
    }
    PyObject *when_obj = PyLong_FromLongLong(when);
    if (when_obj == NULL)
        return -1;
    /* ensure a regular bucket exists for ``when`` even if it stays
     * empty, so the run loop's timestamp pop finds it */
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, when_obj);
    if (bucket == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(when_obj);
            return -1;
        }
        bucket = list_pop_last(self->pool);
        if (bucket == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(when_obj);
                return -1;
            }
            bucket = PyList_New(0);
            if (bucket == NULL) {
                Py_DECREF(when_obj);
                return -1;
            }
        }
        if (PyDict_SetItem(self->buckets, when_obj, bucket) < 0 ||
                heap_push(self, when) < 0) {
            Py_DECREF(bucket);
            Py_DECREF(when_obj);
            return -1;
        }
        Py_DECREF(bucket);
    }
    PyObject *phase = PyDict_GetItemWithError(self->phase, when_obj);
    if (phase == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(when_obj);
            return -1;
        }
        phase = PyList_New(0);
        if (phase == NULL) {
            Py_DECREF(when_obj);
            return -1;
        }
        if (PyDict_SetItem(self->phase, when_obj, phase) < 0) {
            Py_DECREF(phase);
            Py_DECREF(when_obj);
            return -1;
        }
        Py_DECREF(phase);
        phase = PyDict_GetItemWithError(self->phase, when_obj);
        if (phase == NULL) {
            Py_DECREF(when_obj);
            return -1;
        }
    }
    Py_DECREF(when_obj);
    PyObject *entry = PyTuple_Pack(2, key, ev);
    if (entry == NULL)
        return -1;
    int r = PyList_Append(phase, entry);
    Py_DECREF(entry);
    return r;
}

static PyObject *
sim_push_delivery(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "_push_delivery expects (when, key, ev)");
        return NULL;
    }
    int err;
    long long when = as_longlong(args[0], &err);
    if (err)
        return NULL;
    if (push_delivery_c(self, when, args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- processes ---- */

/* Process.__init__ replica: allocate on the Python Process type and
 * fill its slots directly, skipping the interpreter frame. */
static PyObject *
make_process(SimObject *self, PyObject *gen, PyObject *name)
{
    if (!g_fast)
        return PyObject_CallFunctionObjArgs(
            g_Process, gen, name, (PyObject *)self, NULL);
    PyObject *proc = g_ProcessType->tp_alloc(g_ProcessType, 0);
    if (proc == NULL)
        return NULL;
    int named = PyObject_IsTrue(name);
    if (named < 0)
        goto fail;
    PyObject *pname;
    if (named) {
        pname = Py_NewRef(name);
    }
    else {
        pname = PyObject_GetAttr(gen, s_dunder_name);
        if (pname == NULL) {
            PyErr_Clear();
            pname = PyUnicode_FromString("process");
            if (pname == NULL)
                goto fail;
        }
    }
    PyObject *stack = PyList_New(0);
    PyObject *waiters = PyList_New(0);
    if (stack == NULL || waiters == NULL) {
        Py_XDECREF(stack);
        Py_XDECREF(waiters);
        Py_DECREF(pname);
        goto fail;
    }
    SLOT(proc, off_p_gen) = Py_NewRef(gen);
    SLOT(proc, off_p_stack) = stack;
    SLOT(proc, off_p_name) = pname;
    SLOT(proc, off_p_sim) = Py_NewRef((PyObject *)self);
    SLOT(proc, off_p_done) = Py_NewRef(Py_False);
    SLOT(proc, off_p_result) = Py_NewRef(Py_None);
    SLOT(proc, off_p_error) = Py_NewRef(Py_None);
    SLOT(proc, off_p_waiters) = waiters;
    PyObject *inner = PyTuple_Pack(2, proc, Py_None);
    if (inner == NULL)
        goto fail;
    PyObject *rn = PyTuple_Pack(2, self->resume_cb, inner);
    Py_DECREF(inner);
    if (rn == NULL)
        goto fail;
    SLOT(proc, off_p_rn) = rn;
    return proc;
fail:
    Py_DECREF(proc);
    return NULL;
}

static PyObject *
sim_spawn(SimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"gen", "name", NULL};
    PyObject *gen, *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O", kwlist,
                                     &gen, &name))
        return NULL;
    PyObject *proc = make_process(self, gen, name ? name : g_empty_str);
    if (proc == NULL)
        return NULL;
    if (PySet_Add(self->active, proc) < 0) {
        Py_DECREF(proc);
        return NULL;
    }
    /* start after the current event finishes (spawn is not reentrant) */
    PyObject *rn = waiter_rn(proc);
    if (rn == NULL || ring_push(self->ring, rn) < 0) {
        Py_XDECREF(rn);
        Py_DECREF(proc);
        return NULL;
    }
    Py_DECREF(rn);
    return proc;
}

/* ---- main loop ---- */

static int
run_core(SimObject *self, PyObject *until_obj, PyObject *maxev_obj)
{
    if (self->running) {
        PyErr_SetString(g_SimulationError, "run() is not reentrant");
        return -1;
    }
    int have_until = (until_obj != NULL && until_obj != Py_None);
    long long until = 0;
    if (have_until) {
        int err;
        until = as_longlong(until_obj, &err);
        if (err)
            return -1;
    }
    long long max_ev = -1;   /* -1 == unbounded */
    if (maxev_obj != NULL && maxev_obj != Py_None) {
        int err;
        max_ev = as_longlong(maxev_obj, &err);
        if (err)
            return -1;
        if (max_ev < 0)
            max_ev = -1;
    }
    self->running = 1;
    long long dispatched = 0;
    long long base = self->events_dispatched;
    int fail = 0;
    RingObject *ring = self->ring;

    for (;;) {
        while (ring->len) {
            if (dispatched == max_ev) {
                PyErr_Format(g_SimulationError,
                             "exceeded max_events=%S", maxev_obj);
                fail = 1;
                goto done;
            }
            PyObject *ev = ring_popleft(ring);
            if (!PyTuple_CheckExact(ev) || PyTuple_GET_SIZE(ev) != 2) {
                Py_DECREF(ev);
                PyErr_SetString(PyExc_TypeError,
                                "event must be a (fn, args) tuple");
                fail = 1;
                goto done;
            }
            PyObject *fn = PyTuple_GET_ITEM(ev, 0);
            PyObject *fargs = PyTuple_GET_ITEM(ev, 1);
            int ok;
            if (fn == self->resume_cb && PyTuple_CheckExact(fargs) &&
                    PyTuple_GET_SIZE(fargs) == 2) {
                ok = resume_impl(self, PyTuple_GET_ITEM(fargs, 0),
                                 PyTuple_GET_ITEM(fargs, 1), NULL);
            }
            else {
                PyObject *res = PyObject_Call(fn, fargs, NULL);
                ok = (res == NULL) ? -1 : 0;
                Py_XDECREF(res);
            }
            Py_DECREF(ev);
            if (ok < 0) {
                fail = 1;
                goto done;
            }
            dispatched++;
        }
        if (self->heap_len == 0)
            break;
        /* events remain: the bound is checked before looking at
         * ``until`` so a capped run with work pending always raises */
        if (dispatched == max_ev) {
            PyErr_Format(g_SimulationError,
                         "exceeded max_events=%S", maxev_obj);
            fail = 1;
            goto done;
        }
        long long when = self->heap[0];
        if (have_until && when > until) {
            self->now = until;
            break;
        }
        heap_pop(self);
        self->now = when;
        PyObject *when_obj = PyLong_FromLongLong(when);
        if (when_obj == NULL) {
            fail = 1;
            goto done;
        }
        PyObject *phase = PyDict_GetItemWithError(self->phase, when_obj);
        if (phase != NULL) {
            /* delivery phase: canonical (src, seq) arrival order */
            Py_INCREF(phase);
            if (PyDict_DelItem(self->phase, when_obj) < 0 ||
                    (PyList_GET_SIZE(phase) > 1 && PyList_Sort(phase) < 0)) {
                Py_DECREF(phase);
                Py_DECREF(when_obj);
                fail = 1;
                goto done;
            }
            Py_ssize_t pn = PyList_GET_SIZE(phase);
            for (Py_ssize_t i = 0; i < pn; i++) {
                PyObject *entry = PyList_GET_ITEM(phase, i);
                if (ring_push(ring, PyTuple_GET_ITEM(entry, 1)) < 0) {
                    Py_DECREF(phase);
                    Py_DECREF(when_obj);
                    fail = 1;
                    goto done;
                }
            }
            Py_DECREF(phase);
        }
        else if (PyErr_Occurred()) {
            Py_DECREF(when_obj);
            fail = 1;
            goto done;
        }
        PyObject *bucket = PyDict_GetItemWithError(self->buckets, when_obj);
        if (bucket == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_SystemError,
                                "timestamp on heap without bucket");
            Py_DECREF(when_obj);
            fail = 1;
            goto done;
        }
        Py_INCREF(bucket);
        if (PyDict_DelItem(self->buckets, when_obj) < 0) {
            Py_DECREF(bucket);
            Py_DECREF(when_obj);
            fail = 1;
            goto done;
        }
        Py_DECREF(when_obj);
        Py_ssize_t bn = PyList_GET_SIZE(bucket);
        for (Py_ssize_t i = 0; i < bn; i++) {
            if (ring_push(ring, PyList_GET_ITEM(bucket, i)) < 0) {
                Py_DECREF(bucket);
                fail = 1;
                goto done;
            }
        }
        /* clear and recycle the drained bucket */
        if (PyList_SetSlice(bucket, 0, bn, NULL) < 0 ||
                PyList_Append(self->pool, bucket) < 0) {
            Py_DECREF(bucket);
            fail = 1;
            goto done;
        }
        Py_DECREF(bucket);
    }

done:
    self->running = 0;
    self->events_dispatched = base + dispatched;
    return fail ? -1 : 0;
}

static PyObject *
sim_run(SimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *maxev_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until_obj, &maxev_obj))
        return NULL;
    if (run_core(self, until_obj, maxev_obj) < 0)
        return NULL;
    return PyLong_FromLongLong(self->now);
}

static PyObject *
sim_run_process(SimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"gen", "name", "max_events", NULL};
    PyObject *gen, *name = NULL, *maxev_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OO", kwlist,
                                     &gen, &name, &maxev_obj))
        return NULL;
    PyObject *name_obj = name ? Py_NewRef(name)
                              : PyUnicode_FromString("main");
    if (name_obj == NULL)
        return NULL;
    PyObject *spawn_args = PyTuple_Pack(2, gen, name_obj);
    if (spawn_args == NULL) {
        Py_DECREF(name_obj);
        return NULL;
    }
    PyObject *proc = sim_spawn(self, spawn_args, NULL);
    Py_DECREF(spawn_args);
    if (proc == NULL) {
        Py_DECREF(name_obj);
        return NULL;
    }
    if (run_core(self, Py_None, maxev_obj) < 0) {
        Py_DECREF(name_obj);
        Py_DECREF(proc);
        return NULL;
    }
    PyObject *done = PyObject_GetAttr(proc, s_done);
    if (done == NULL) {
        Py_DECREF(name_obj);
        Py_DECREF(proc);
        return NULL;
    }
    int is_done = PyObject_IsTrue(done);
    Py_DECREF(done);
    if (is_done <= 0) {
        if (is_done == 0)
            PyErr_Format(
                g_SimulationError,
                "deadlock: process %R still blocked at t=%lld with %zd "
                "live processes", name_obj, self->now,
                PySet_GET_SIZE(self->active));
        Py_DECREF(name_obj);
        Py_DECREF(proc);
        return NULL;
    }
    Py_DECREF(name_obj);
    PyObject *result = PyObject_GetAttr(proc, s_result);
    Py_DECREF(proc);
    return result;
}

/* ---- diagnostics ---- */

static Py_ssize_t
dict_values_total_len(PyObject *dict)
{
    Py_ssize_t total = 0;
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(dict, &pos, &key, &value))
        total += PyList_GET_SIZE(value);
    return total;
}

static PyObject *
sim_pending_events(SimObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t total = self->ring->len
        + dict_values_total_len(self->buckets)
        + dict_values_total_len(self->phase);
    return PyLong_FromSsize_t(total);
}

/* ---- attribute plumbing ---- */

static PyObject *
sim_get_now(SimObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->now);
}

static int
sim_set_now(SimObject *self, PyObject *value, void *Py_UNUSED(closure))
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete now");
        return -1;
    }
    int err;
    long long v = as_longlong(value, &err);
    if (err)
        return -1;
    self->now = v;
    return 0;
}

static PyObject *
sim_get_events_dispatched(SimObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->events_dispatched);
}

static int
sim_set_events_dispatched(SimObject *self, PyObject *value,
                          void *Py_UNUSED(closure))
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "cannot delete events_dispatched");
        return -1;
    }
    int err;
    long long v = as_longlong(value, &err);
    if (err)
        return -1;
    self->events_dispatched = v;
    return 0;
}

static PyObject *
sim_get_resume(SimObject *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->resume_cb);
}

static PyGetSetDef Sim_getset[] = {
    {"now", (getter)sim_get_now, (setter)sim_set_now,
     "current simulated time in CPU cycles", NULL},
    {"events_dispatched", (getter)sim_get_events_dispatched,
     (setter)sim_set_events_dispatched,
     "total events dispatched across all run() calls", NULL},
    {"_resume", (getter)sim_get_resume, NULL,
     "the kernel's stable resume callable (identity matters: "
     "``proc._rn`` tuples all reference this one object)", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef Sim_members[] = {
    {"active_processes", T_OBJECT_EX, offsetof(SimObject, active), READONLY,
     "live (unfinished) processes, for leak diagnostics in tests"},
    {"_ring", T_OBJECT_EX, offsetof(SimObject, ring), READONLY,
     "same-cycle FIFO dispatch ring (append/__len__/__bool__)"},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Sim_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))sim_schedule, METH_FASTCALL,
     "schedule(delay, fn, *args): run fn(*args) delay cycles from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))sim_schedule_at,
     METH_FASTCALL,
     "schedule_at(when, fn, *args): run fn(*args) at absolute time when."},
    {"_push_future", (PyCFunction)(void (*)(void))sim_push_future,
     METH_FASTCALL,
     "_push_future(when, ev): append ev to the bucket at future time when."},
    {"_push_delivery", (PyCFunction)(void (*)(void))sim_push_delivery,
     METH_FASTCALL,
     "_push_delivery(when, key, ev): queue a delivery-phase event."},
    {"spawn", (PyCFunction)(void (*)(void))sim_spawn,
     METH_VARARGS | METH_KEYWORDS,
     "spawn(gen, name=''): create a Process and start it this cycle."},
    {"run", (PyCFunction)(void (*)(void))sim_run,
     METH_VARARGS | METH_KEYWORDS,
     "run(until=None, max_events=None): dispatch until drained/bounded."},
    {"run_process", (PyCFunction)(void (*)(void))sim_run_process,
     METH_VARARGS | METH_KEYWORDS,
     "run_process(gen, name='main', max_events=None): spawn, run, return "
     "the process result (raises on deadlock)."},
    {"pending_events", (PyCFunction)sim_pending_events, METH_NOARGS,
     "Number of events currently queued (diagnostic)."},
    {NULL, NULL, 0, NULL},
};

static int
Sim_init(SimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return -1;
    self->now = 0;
    self->events_dispatched = 0;
    self->running = 0;
    RingObject *ring = ring_new();
    if (ring == NULL)
        return -1;
    Py_XSETREF(self->ring, ring);
    PyObject *tmp;
    tmp = PyDict_New();
    if (tmp == NULL)
        return -1;
    Py_XSETREF(self->buckets, tmp);
    tmp = PyDict_New();
    if (tmp == NULL)
        return -1;
    Py_XSETREF(self->phase, tmp);
    tmp = PyList_New(0);
    if (tmp == NULL)
        return -1;
    Py_XSETREF(self->pool, tmp);
    tmp = PySet_New(NULL);
    if (tmp == NULL)
        return -1;
    Py_XSETREF(self->active, tmp);
    tmp = PyCFunction_New(&resume_def, (PyObject *)self);
    if (tmp == NULL)
        return -1;
    Py_XSETREF(self->resume_cb, tmp);
    self->heap_len = 0;
    return 0;
}

static int
Sim_traverse(SimObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->ring);
    Py_VISIT(self->buckets);
    Py_VISIT(self->phase);
    Py_VISIT(self->pool);
    Py_VISIT(self->active);
    Py_VISIT(self->resume_cb);
    return 0;
}

static int
Sim_clear(SimObject *self)
{
    Py_CLEAR(self->ring);
    Py_CLEAR(self->buckets);
    Py_CLEAR(self->phase);
    Py_CLEAR(self->pool);
    Py_CLEAR(self->active);
    Py_CLEAR(self->resume_cb);
    return 0;
}

static void
Sim_dealloc(SimObject *self)
{
    PyObject_GC_UnTrack(self);
    Sim_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject Sim_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.backends._accel_core.AccelSimulator",
    .tp_basicsize = sizeof(SimObject),
    .tp_dealloc = (destructor)Sim_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled deterministic discrete-event simulation kernel "
              "(byte-identical to repro.sim.kernel.Simulator).",
    .tp_traverse = (traverseproc)Sim_traverse,
    .tp_clear = (inquiry)Sim_clear,
    .tp_methods = Sim_methods,
    .tp_members = Sim_members,
    .tp_getset = Sim_getset,
    .tp_init = (initproc)Sim_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* model fast paths (fabric send/deliver, word updates, wave builds)   */
/* ------------------------------------------------------------------ */

/* non-raising exact-int extraction; returns 0 on success */
static int
ll_of(PyObject *obj, long long *out)
{
    if (obj == NULL || !PyLong_CheckExact(obj))
        return -1;
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow)
        return -1;
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    *out = v;
    return 0;
}

/* counter[key] = counter.get(key, 0) + n on an exact dict */
static int
counter_add(PyObject *counter, PyObject *key, long long n)
{
    PyObject *cur = PyDict_GetItemWithError(counter, key);
    if (cur == NULL && PyErr_Occurred())
        return -1;
    PyObject *nv = NULL;
    long long base;
    if (cur == NULL) {
        nv = PyLong_FromLongLong(n);
    }
    else if (ll_of(cur, &base) == 0) {
        nv = PyLong_FromLongLong(base + n);
    }
    else {
        PyObject *incr = PyLong_FromLongLong(n);
        if (incr == NULL)
            return -1;
        nv = PyNumber_Add(cur, incr);
        Py_DECREF(incr);
    }
    if (nv == NULL)
        return -1;
    int r = PyDict_SetItem(counter, key, nv);
    Py_DECREF(nv);
    return r;
}

/* Signal.fire body for a *known-unfired* exact Signal whose waiter
 * list is an exact list (the caller verified both) */
static int
signal_fire_commit(SimObject *sim, PyObject *sig, PyObject *value)
{
    slot_store(sig, off_s_fired, Py_NewRef(Py_True));
    slot_store(sig, off_s_value, Py_NewRef(value));
    PyObject *waiters = SLOT(sig, off_s_waiters);
    if (waiters != NULL && PyList_CheckExact(waiters)
            && PyList_GET_SIZE(waiters) > 0) {
        PyObject *empty = PyList_New(0);
        if (empty == NULL)
            return -1;
        SLOT(sig, off_s_waiters) = empty;   /* we now own ``waiters`` */
        Py_ssize_t n = PyList_GET_SIZE(waiters);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (push_resume(sim, PyList_GET_ITEM(waiters, i), value) < 0) {
                Py_DECREF(waiters);
                return -1;
            }
        }
        Py_DECREF(waiters);
    }
    return 0;
}

/* Gate.pulse body for an exact Gate with an exact-list waiter list */
static int
gate_pulse_commit(SimObject *sim, PyObject *gate)
{
    PyObject *waiters = SLOT(gate, off_g_waiters);
    if (waiters != NULL && PyList_CheckExact(waiters)
            && PyList_GET_SIZE(waiters) > 0) {
        PyObject *empty = PyList_New(0);
        if (empty == NULL)
            return -1;
        SLOT(gate, off_g_waiters) = empty;
        Py_ssize_t n = PyList_GET_SIZE(waiters);
        for (Py_ssize_t i = 0; i < n; i++) {
            if (push_resume(sim, PyList_GET_ITEM(waiters, i),
                            Py_None) < 0) {
                Py_DECREF(waiters);
                return -1;
            }
        }
        Py_DECREF(waiters);
    }
    return 0;
}

/* SetAssociativeCache.apply_word_update replica (probe + patch_word +
 * word_updates).  Returns 1 applied, 0 not applied, -1 error, -2
 * precondition miss — strictly before any mutation. */
static int
cache_apply_word(PyObject *cache, long long addr, PyObject *value)
{
    long long lb, nsets, wu;
    if (ll_of(SLOT(cache, off_sc_lb), &lb) < 0 || lb <= 0 ||
            ll_of(SLOT(cache, off_sc_nsets), &nsets) < 0 || nsets <= 0 ||
            ll_of(SLOT(cache, off_sc_wu), &wu) < 0)
        return -2;
    PyObject *sets = SLOT(cache, off_sc_sets);
    if (sets == NULL || !PyDict_Check(sets))    /* defaultdict subclass */
        return -2;
    long long base = addr - addr % lb;
    PyObject *skey = PyLong_FromLongLong((base / lb) % nsets);
    if (skey == NULL)
        return -1;
    /* ``.get`` semantics: no defaultdict __missing__ on a miss */
    PyObject *entry = PyDict_GetItemWithError(sets, skey);
    Py_DECREF(skey);
    if (entry == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyDict_CheckExact(entry))
        return -2;
    PyObject *bkey = PyLong_FromLongLong(base);
    if (bkey == NULL)
        return -1;
    PyObject *line = PyDict_GetItemWithError(entry, bkey);
    Py_DECREF(bkey);
    if (line == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!Py_IS_TYPE(line, g_LineType))
        return -2;
    PyObject *state = SLOT(line, off_cl_state);
    if (state == NULL)
        return -2;
    if (state == g_InvalidState)
        return 0;
    PyObject *words = SLOT(line, off_cl_words);
    if (words == NULL || !PyDict_CheckExact(words))
        return -2;
    /* commit: words[word base] = value (no dirty bit — the home's copy
     * is the source of truth for pushed words); word_updates += 1 */
    PyObject *wkey = PyLong_FromLongLong(addr - addr % g_word_bytes);
    if (wkey == NULL)
        return -1;
    int r = PyDict_SetItem(words, wkey, value);
    Py_DECREF(wkey);
    if (r < 0)
        return -1;
    PyObject *nwu = PyLong_FromLongLong(wu + 1);
    if (nwu == NULL)
        return -1;
    slot_store(cache, off_sc_wu, nwu);
    return 1;
}

/* CacheController.on_word_update replica.  Returns 0 handled, 1 when
 * the caller must call the Python route instead (nothing mutated), -1
 * on error. */
static int
word_update_fast(SimObject *sim, PyObject *hub, PyObject *msg)
{
    PyObject *dst_cpu = SLOT(msg, off_m_dst_cpu);
    PyObject *controllers = SLOT(hub, off_h_controllers);
    if (dst_cpu == NULL || !PyLong_CheckExact(dst_cpu)
            || controllers == NULL || !PyDict_CheckExact(controllers))
        return 1;
    PyObject *ctrl = PyDict_GetItemWithError(controllers, dst_cpu);
    if (ctrl == NULL)
        return PyErr_Occurred() ? -1 : 1;
    /* subclass allowed: the accel controller adds __slots__ = () only
     * and does not override on_word_update */
    if (!PyObject_TypeCheck(ctrl, g_CtrlType))
        return 1;
    PyObject *addr_obj = SLOT(msg, off_m_addr);
    PyObject *value = SLOT(msg, off_m_value);
    long long addr;
    if (value == NULL || ll_of(addr_obj, &addr) < 0 || addr < 0)
        return 1;
    PyObject *inflight = SLOT(ctrl, off_c_inflight);
    if (inflight == NULL || !PyDict_CheckExact(inflight))
        return 1;
    long long line = addr - addr % g_line_bytes;
    PyObject *line_obj = PyLong_FromLongLong(line);
    if (line_obj == NULL)
        return -1;
    PyObject *mshr = PyDict_GetItemWithError(inflight, line_obj);
    if (mshr == NULL && PyErr_Occurred()) {
        Py_DECREF(line_obj);
        return -1;
    }
    if (mshr != NULL) {
        /* a fill is in flight: park the update on the MSHR */
        Py_DECREF(line_obj);
        if (!PyDict_CheckExact(mshr))
            return 1;
        PyObject *updates = PyDict_GetItemWithError(mshr, s_updates);
        if (updates == NULL)
            return PyErr_Occurred() ? -1 : 1;
        if (!PyList_CheckExact(updates))
            return 1;
        PyObject *pair = PyTuple_Pack(2, addr_obj, value);
        if (pair == NULL)
            return -1;
        int r = PyList_Append(updates, pair);
        Py_DECREF(pair);
        return r < 0 ? -1 : 0;
    }
    PyObject *l2 = SLOT(ctrl, off_c_l2);
    PyObject *l1 = SLOT(ctrl, off_c_l1);
    if (l2 == NULL || l1 == NULL || !Py_IS_TYPE(l2, g_CacheType)
            || !Py_IS_TYPE(l1, g_CacheType)) {
        Py_DECREF(line_obj);
        return 1;
    }
    int applied = cache_apply_word(l2, addr, value);
    if (applied == -1) {
        Py_DECREF(line_obj);
        return -1;
    }
    if (applied == -2) {
        Py_DECREF(line_obj);
        return 1;
    }
    if (applied == 0) {
        Py_DECREF(line_obj);
        return 0;
    }
    /* L2 applied — committed.  From here degraded cases must use
     * targeted generic calls (a full Python replay would re-apply). */
    int r1 = cache_apply_word(l1, addr, value);
    if (r1 == -1) {
        Py_DECREF(line_obj);
        return -1;
    }
    if (r1 == -2) {
        PyObject *res = PyObject_CallMethodObjArgs(
            l1, s_apply_word_update, addr_obj, value, NULL);
        if (res == NULL) {
            Py_DECREF(line_obj);
            return -1;
        }
        Py_DECREF(res);
    }
    PyObject *resv = SLOT(ctrl, off_c_resv);
    if (resv != NULL && resv != Py_None) {
        int eq = PyObject_RichCompareBool(resv, line_obj, Py_EQ);
        if (eq < 0) {
            Py_DECREF(line_obj);
            return -1;
        }
        if (eq)
            slot_store(ctrl, off_c_resv, Py_NewRef(Py_None));
    }
    /* _line_changed(addr): bump the line version, pulse the spin gate */
    PyObject *meta_map = SLOT(ctrl, off_c_meta);
    PyObject *meta = NULL;
    if (meta_map != NULL && PyDict_CheckExact(meta_map)) {
        meta = PyDict_GetItemWithError(meta_map, line_obj);
        if (meta == NULL && PyErr_Occurred()) {
            Py_DECREF(line_obj);
            return -1;
        }
    }
    Py_DECREF(line_obj);
    if (meta != NULL && Py_IS_TYPE(meta, g_LineMetaType)) {
        PyObject *gate = SLOT(meta, off_lm_gate);
        long long version;
        if (gate != NULL && g_fast && Py_IS_TYPE(gate, g_GateType)
                && PyList_CheckExact(SLOT(gate, off_g_waiters))
                && ll_of(SLOT(meta, off_lm_version), &version) == 0) {
            PyObject *nv = PyLong_FromLongLong(version + 1);
            if (nv == NULL)
                return -1;
            slot_store(meta, off_lm_version, nv);
            return gate_pulse_commit(sim, gate);
        }
    }
    /* meta missing (lazily created) or degenerate: one generic call */
    PyObject *res = PyObject_CallMethodObjArgs(ctrl, s_line_changed,
                                               addr_obj, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* reply_to.try_fire(sim, msg): a reply racing the requester's
 * retransmission timeout is dropped.  Returns 0 / -1. */
static int
reply_fire(SimObject *sim, PyObject *reply_to, PyObject *msg)
{
    if (g_fast && Py_IS_TYPE(reply_to, g_SignalType)) {
        int fired = slot_truth(SLOT(reply_to, off_s_fired));
        if (fired < 0)
            return -1;
        if (fired)
            return 0;
        PyObject *waiters = SLOT(reply_to, off_s_waiters);
        if (waiters != NULL && PyList_CheckExact(waiters))
            return signal_fire_commit(sim, reply_to, msg);
    }
    PyObject *res = PyObject_CallMethodObjArgs(
        reply_to, s_try_fire, (PyObject *)sim, msg, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Network._deliver fast path.  Returns 0 handled, 1 fall back to the
 * Python coding (nothing mutated), -1 error.
 *
 * Like send_fast, only genuine precondition misses fall back.  A failed
 * read of ``sim`` on the reply path or of ``_handlers`` on the request
 * path propagates, because the Python coding reads them there too; a
 * failed ``sim`` read on the request path falls back, because there
 * the Python coding never reads it. */
static int
deliver_fast(PyObject *net, PyObject *msg)
{
    if (!g_model_fast || !Py_IS_TYPE(msg, g_MsgType))
        return 1;
    PyObject *kind = SLOT(msg, off_m_kind);
    PyObject *reply_to = SLOT(msg, off_m_reply_to);
    if (kind == NULL || reply_to == NULL)
        return 1;
    int reply = 0;
    if (reply_to != Py_None) {
        /* a kind without ``is_reply`` raises here exactly as in the
         * Python coding; it is an error, not a precondition miss */
        PyObject *is_reply = PyObject_GetAttr(kind, s_is_reply);
        if (is_reply == NULL)
            return -1;
        reply = PyObject_IsTrue(is_reply);
        Py_DECREF(is_reply);
        if (reply < 0)
            return -1;
    }
    PyObject *sim_obj = PyObject_GetAttr(net, s_sim);
    if (sim_obj == NULL) {
        if (reply)
            return -1;
        PyErr_Clear();
        return 1;
    }
    if (!Py_IS_TYPE(sim_obj, &Sim_Type)) {
        Py_DECREF(sim_obj);
        return 1;
    }
    SimObject *sim = (SimObject *)sim_obj;
    int rc = -1;
    if (reply) {
        /* clear the delivered reply's reply_to before the fire: the
         * signal's value is the reply, and the back-reference would
         * make the pair a cycle (see Network._deliver) */
        Py_INCREF(reply_to);
        slot_store(msg, off_m_reply_to, Py_NewRef(Py_None));
        rc = reply_fire(sim, reply_to, msg);
        Py_DECREF(reply_to);
        goto done;
    }
    /* request path: handler = self._handlers[msg.dst_node] */
    {
        long long dst;
        if (ll_of(SLOT(msg, off_m_dst), &dst) < 0) {
            rc = 1;
            goto done;
        }
        PyObject *handlers = PyObject_GetAttr(net, s_handlers);
        if (handlers == NULL)
            goto done;
        if (!PyList_CheckExact(handlers) || dst < 0
                || dst >= PyList_GET_SIZE(handlers)) {
            Py_DECREF(handlers);
            rc = 1;
            goto done;
        }
        PyObject *h = Py_NewRef(PyList_GET_ITEM(handlers, dst));
        Py_DECREF(handlers);
        if (h == Py_None) {
            /* no handler: the Python coding raises the right error */
            Py_DECREF(h);
            rc = 1;
            goto done;
        }
        PyObject *target = h;   /* what we will call with (msg,) */
        if (PyMethod_Check(h) && PyMethod_GET_FUNCTION(h) == g_HubReceive
                && PyObject_TypeCheck(PyMethod_GET_SELF(h), g_HubType)) {
            /* inline Hub.receive: one identity-hash dict probe */
            PyObject *hub = PyMethod_GET_SELF(h);
            PyObject *routes = SLOT(hub, off_h_routes);
            if (routes != NULL && PyDict_CheckExact(routes)) {
                PyObject *route = PyDict_GetItemWithError(routes, kind);
                if (route == NULL && PyErr_Occurred()) {
                    Py_DECREF(h);
                    goto done;
                }
                if (route != NULL) {
                    if (kind == g_WordUpdateKind) {
                        int r = word_update_fast(sim, hub, msg);
                        if (r <= 0) {
                            Py_DECREF(h);
                            rc = r;
                            goto done;
                        }
                    }
                    target = route;
                }
                /* unroutable kinds call receive() for its error */
            }
        }
        PyObject *res = PyObject_CallOneArg(target, msg);
        Py_DECREF(h);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
        rc = 0;
    }
done:
    Py_DECREF(sim_obj);
    return rc;
}

/* Network.send fast path (latency-only universe).  Returns 0 handled,
 * 1 fall back (nothing mutated), -1 error.
 *
 * Only genuine precondition misses fall back: contention modelling on,
 * an injector installed, a send hook subscribed, a cold
 * route, or a value of a non-exact type.  A failed read of an attribute
 * that Network.__init__ or TrafficStats always sets is an error and
 * propagates, exactly as it would from the Python coding. */
static int
send_fast(PyObject *net, PyObject *msg)
{
    if (!g_model_fast || !Py_IS_TYPE(msg, g_MsgType))
        return 1;
    PyObject *sim_obj = PyObject_GetAttr(net, s_sim);
    if (sim_obj == NULL)
        return -1;
    if (!Py_IS_TYPE(sim_obj, &Sim_Type)) {
        Py_DECREF(sim_obj);
        return 1;
    }
    SimObject *sim = (SimObject *)sim_obj;
    int rc = -1;
    PyObject *stats = NULL, *key = NULL, *deliver = NULL, *seqs = NULL;
    PyObject *counts = NULL, *count_key = NULL;
    /* --- precondition phase: no mutation before every check passes --- */
    {
        PyObject *cfg = PyObject_GetAttr(net, s_config);
        if (cfg == NULL)
            goto done;
        PyObject *flags[2] = { s_router_contention, s_link_contention };
        int contended = 0;
        for (int i = 0; i < 2 && !contended; i++) {
            PyObject *flag = PyObject_GetAttr(cfg, flags[i]);
            contended = flag == NULL ? -1 : PyObject_IsTrue(flag);
            Py_XDECREF(flag);
        }
        Py_DECREF(cfg);
        if (contended < 0)
            goto done;
        if (contended)
            goto soft_fallback;
    }
    {
        PyObject *names[2] = { s_delay_injector, s_reorder_injector };
        for (int i = 0; i < 2; i++) {
            PyObject *obj = PyObject_GetAttr(net, names[i]);
            if (obj == NULL)
                goto done;
            int none = (obj == Py_None);
            Py_DECREF(obj);
            if (!none)
                goto soft_fallback;
        }
    }
    {
        PyObject *hooks = PyObject_GetAttr(net, s_send_hooks);
        if (hooks == NULL)
            goto done;
        int empty = PyList_CheckExact(hooks)
            && PyList_GET_SIZE(hooks) == 0;
        Py_DECREF(hooks);
        if (!empty)
            goto soft_fallback;
    }
    stats = PyObject_GetAttr(net, s_stats);
    if (stats == NULL)
        goto done;
    if (!Py_IS_TYPE(stats, g_StatsType))
        goto soft_fallback;
    long long lat;
    {
        PyObject *src = SLOT(msg, off_m_src);
        PyObject *dst = SLOT(msg, off_m_dst);
        if (src == NULL || dst == NULL)
            goto soft_fallback;
        PyObject *cache = PyObject_GetAttr(net, s_route_cache);
        if (cache == NULL)
            goto done;
        if (!PyDict_CheckExact(cache)) {
            Py_DECREF(cache);
            goto soft_fallback;
        }
        key = PyTuple_Pack(2, src, dst);
        if (key == NULL) {
            Py_DECREF(cache);
            goto done;
        }
        PyObject *route = PyDict_GetItemWithError(cache, key);
        if (route == NULL) {
            Py_DECREF(cache);
            if (PyErr_Occurred())
                goto done;
            goto soft_fallback;   /* cold route: Python fills the cache */
        }
        PyObject *kind = SLOT(msg, off_m_kind);
        int ok = kind != NULL && PyTuple_CheckExact(route)
            && PyTuple_GET_SIZE(route) == 2
            && ll_of(PyTuple_GET_ITEM(route, 1), &lat) == 0;
        if (ok)   /* (kind, hops): the key TrafficStats.record uses */
            count_key = PyTuple_Pack(2, kind, PyTuple_GET_ITEM(route, 0));
        Py_DECREF(cache);
        if (!ok)
            goto soft_fallback;
        if (count_key == NULL)
            goto done;
    }
    counts = PyObject_GetAttr(stats, s_counts);
    if (counts == NULL)
        goto done;
    if (!PyDict_CheckExact(counts))
        goto soft_fallback;
    int retrans = slot_truth(SLOT(msg, off_m_retransmit));
    if (retrans < 0)
        goto done;
    long long retrans_base = 0;
    if (retrans > 0) {
        PyObject *rt = PyObject_GetAttr(stats, s_retransmits);
        if (rt == NULL)
            goto done;
        int ok = ll_of(rt, &retrans_base) == 0;
        Py_DECREF(rt);
        if (!ok)
            goto soft_fallback;
    }
    long long src_ll = 0, seq = 0;
    if (lat != 0) {
        seqs = PyObject_GetAttr(net, s_inj_seq);
        if (seqs == NULL)
            goto done;
        int ok = PyList_CheckExact(seqs)
            && ll_of(SLOT(msg, off_m_src), &src_ll) == 0 && src_ll >= 0
            && src_ll < PyList_GET_SIZE(seqs)
            && ll_of(PyList_GET_ITEM(seqs, src_ll), &seq) == 0;
        if (!ok)
            goto soft_fallback;
    }
    deliver = PyObject_GetAttr(net, s_deliver);
    if (deliver == NULL)
        goto done;
    /* --- commit phase: stats.record + inlined delivery scheduling --- */
    {
        int err = counter_add(counts, count_key, 1) < 0;
        if (err)
            goto done;
        if (retrans > 0) {
            PyObject *nrt = PyLong_FromLongLong(retrans_base + 1);
            err = nrt == NULL
                || PyObject_SetAttr(stats, s_retransmits, nrt) < 0;
            Py_XDECREF(nrt);
            if (err)
                goto done;
        }
        PyObject *margs = PyTuple_Pack(1, msg);
        if (margs == NULL)
            goto done;
        PyObject *ev = PyTuple_Pack(2, deliver, margs);
        Py_DECREF(margs);
        if (ev == NULL)
            goto done;
        int r;
        if (lat != 0) {
            PyObject *seq_old = Py_NewRef(PyList_GET_ITEM(seqs, src_ll));
            PyObject *seq_new = PyLong_FromLongLong(seq + 1);
            if (seq_new == NULL) {
                Py_DECREF(seq_old);
                Py_DECREF(ev);
                goto done;
            }
            PyList_SetItem(seqs, src_ll, seq_new);   /* steals seq_new */
            PyObject *dkey = PyTuple_Pack(2, SLOT(msg, off_m_src),
                                          seq_old);
            Py_DECREF(seq_old);
            r = dkey == NULL
                ? -1 : push_delivery_c(sim, sim->now + lat, dkey, ev);
            Py_XDECREF(dkey);
        }
        else {
            /* zero latency implies node-local: plain FIFO ring order */
            r = ring_push(sim->ring, ev);
        }
        Py_DECREF(ev);
        if (r < 0)
            goto done;
        rc = 0;
        goto done;
    }
soft_fallback:
    rc = 1;
done:
    Py_XDECREF(stats);
    Py_XDECREF(key);
    Py_XDECREF(deliver);
    Py_XDECREF(seqs);
    Py_XDECREF(counts);
    Py_XDECREF(count_key);
    Py_DECREF(sim_obj);
    return rc;
}

/* bound instance callables installed by repro.sim.backends.model */

static PyObject *
net_send_meth(PyObject *net, PyObject *msg)
{
    int r = send_fast(net, msg);
    if (r < 0)
        return NULL;
    if (r == 0)
        Py_RETURN_NONE;
    return PyObject_CallFunctionObjArgs(g_NetSend, net, msg, NULL);
}

static PyObject *
net_deliver_meth(PyObject *net, PyObject *msg)
{
    int r = deliver_fast(net, msg);
    if (r < 0)
        return NULL;
    if (r == 0)
        Py_RETURN_NONE;
    return PyObject_CallFunctionObjArgs(g_NetDeliver, net, msg, NULL);
}

static PyMethodDef net_send_def = {
    "send", (PyCFunction)net_send_meth, METH_O,
    "compiled Network.send fast path (latency-only universe; falls "
    "back to the Python coding whenever any precondition fails)"};

static PyMethodDef net_deliver_def = {
    "_deliver", (PyCFunction)net_deliver_meth, METH_O,
    "compiled Network._deliver fast path (reply fire, hub dispatch, "
    "inlined word updates)"};

static PyObject *
mod_make_sender(PyObject *mod, PyObject *net)
{
    (void)mod;
    return PyCFunction_New(&net_send_def, net);
}

static PyObject *
mod_make_deliver(PyObject *mod, PyObject *net)
{
    (void)mod;
    return PyCFunction_New(&net_deliver_def, net);
}

/* build an egress wave's message list in one pass: Message.__init__
 * replica per (cpu, node) pair, ids drawn from the shared counter */
static PyObject *
mod_build_wave(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "build_wave expects (kind, src_node, addr, "
                        "value, payload, pairs)");
        return NULL;
    }
    if (!g_model_fast) {
        PyErr_SetString(PyExc_RuntimeError,
                        "model fast paths are not armed");
        return NULL;
    }
    PyObject *kind = args[0], *src = args[1], *addr = args[2],
        *value = args[3], *payload = args[4];
    PyObject *pairs = PySequence_Fast(args[5],
                                      "pairs must be a sequence");
    if (pairs == NULL)
        return NULL;
    PyObject *packet = PyObject_GetAttr(kind, s_packet_bytes);
    if (packet == NULL) {
        Py_DECREF(pairs);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(pairs);
    PyObject *out = PyList_New(n);
    if (out == NULL) {
        Py_DECREF(packet);
        Py_DECREF(pairs);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(pairs, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "pairs must be (cpu, node) tuples");
            goto fail;
        }
        PyObject *cpu = PyTuple_GET_ITEM(pair, 0);
        PyObject *node = PyTuple_GET_ITEM(pair, 1);
        PyObject *m = g_MsgType->tp_alloc(g_MsgType, 0);
        if (m == NULL)
            goto fail;
        PyObject *mid = PyIter_Next(g_MsgIds);
        if (mid == NULL) {
            Py_DECREF(m);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "message id counter exhausted");
            goto fail;
        }
        SLOT(m, off_m_kind) = Py_NewRef(kind);
        SLOT(m, off_m_src) = Py_NewRef(src);
        SLOT(m, off_m_dst) = Py_NewRef(node);
        SLOT(m, off_m_addr) = Py_NewRef(addr);
        SLOT(m, off_m_value) = Py_NewRef(value);
        SLOT(m, off_m_payload) = Py_NewRef(payload);
        SLOT(m, off_m_reply_to) = Py_NewRef(Py_None);
        SLOT(m, off_m_requester) = Py_NewRef(Py_None);
        SLOT(m, off_m_dst_cpu) = Py_NewRef(cpu);
        SLOT(m, off_m_retransmit) = Py_NewRef(Py_False);
        SLOT(m, off_m_size) = Py_NewRef(packet);
        SLOT(m, off_m_id) = mid;
        PyList_SET_ITEM(out, i, m);
    }
    Py_DECREF(packet);
    Py_DECREF(pairs);
    return out;
fail:
    Py_DECREF(out);
    Py_DECREF(packet);
    Py_DECREF(pairs);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* compiled protocol coroutines                                        */
/*                                                                     */
/* The model hot path is a chain of tiny generators: Hub.egress_send   */
/* and CacheController.load / _do_invalidate.  Each                  */
/* becomes a C state machine speaking the full generator protocol      */
/* (tp_iternext + am_send + send/throw/close), so the kernel's         */
/* trampoline, Python ``yield from`` and ``sim.spawn`` all drive it    */
/* without a Python frame.  Every port replays the exact Python        */
/* coding — same yields, same counters, same message construction      */
/* order — and a precondition miss before any mutation delegates to    */
/* the armed Python twin (a fresh generator replaying the whole        */
/* body); after mutation only targeted generic calls are used, never   */
/* a full-body replay.                                                 */
/* ------------------------------------------------------------------ */

/* obj.<slot> += 1, degrading to the attribute protocol */
static int
inc_counter(PyObject *obj, Py_ssize_t off, const char *name)
{
    long long v;
    if (off >= 0 && ll_of(SLOT(obj, off), &v) == 0) {
        PyObject *nv = PyLong_FromLongLong(v + 1);
        if (nv == NULL)
            return -1;
        slot_store(obj, off, nv);
        return 0;
    }
    PyObject *cur = PyObject_GetAttrString(obj, name);
    if (cur == NULL)
        return -1;
    PyObject *nv = PyNumber_Add(cur, g_one);
    Py_DECREF(cur);
    if (nv == NULL)
        return -1;
    int r = PyObject_SetAttrString(obj, name, nv);
    Py_DECREF(nv);
    return r;
}

/* raise StopIteration(value) exactly like a finished generator; the
 * instance is constructed explicitly so tuple values survive */
static void
set_stop_iteration_exc(PyObject *value)
{
    if (value == NULL || value == Py_None) {
        PyErr_SetNone(PyExc_StopIteration);
        return;
    }
    PyObject *e = PyObject_CallOneArg(PyExc_StopIteration, value);
    if (e == NULL)
        return;
    PyErr_SetObject(PyExc_StopIteration, e);
    Py_DECREF(e);
}

/* Resource.release replica (grant hand-off included); any precondition
 * miss — including the idle-release RuntimeError — defers to the
 * generic method so behaviour matches exactly.  Returns 0 / -1. */
static int
resource_release(PyObject *res)
{
    long long busy_cyc, acq;
    if (g_fast && Py_IS_TYPE(res, g_ResourceType)) {
        PyObject *sim_obj = SLOT(res, off_r_sim);
        int busy = slot_truth(SLOT(res, off_r_busy));
        if (busy < 0)
            return -1;
        if (busy && sim_obj != NULL && Py_IS_TYPE(sim_obj, &Sim_Type)
                && ll_of(SLOT(res, off_r_busy_cycles), &busy_cyc) == 0
                && ll_of(SLOT(res, off_r_acquired), &acq) == 0
                && SLOT(res, off_r_queue) != NULL
                && SLOT(res, off_r_grants) != NULL) {
            SimObject *sim = (SimObject *)sim_obj;
            long long now = sim->now;
            PyObject *queue = SLOT(res, off_r_queue);
            Py_ssize_t qlen = PyObject_Size(queue);
            if (qlen < 0)
                return -1;
            PyObject *nbc = PyLong_FromLongLong(busy_cyc + (now - acq));
            if (nbc == NULL)
                return -1;
            slot_store(res, off_r_busy_cycles, nbc);
            if (qlen > 0) {
                PyObject *waiter =
                    PyObject_CallMethodNoArgs(queue, s_popleft);
                if (waiter == NULL)
                    return -1;
                PyObject *ng = PyNumber_Add(SLOT(res, off_r_grants), g_one);
                PyObject *acq_now = PyLong_FromLongLong(now);
                if (ng == NULL || acq_now == NULL) {
                    Py_XDECREF(ng);
                    Py_XDECREF(acq_now);
                    Py_DECREF(waiter);
                    return -1;
                }
                slot_store(res, off_r_grants, ng);
                slot_store(res, off_r_acquired, acq_now);
                PyObject *rn = waiter_rn(waiter);
                if (rn == NULL) {
                    Py_DECREF(waiter);
                    return -1;
                }
                int rr = ring_push(sim->ring, rn);
                Py_DECREF(rn);
                Py_DECREF(waiter);
                return rr;
            }
            slot_store(res, off_r_busy, Py_NewRef(Py_False));
            return 0;
        }
    }
    PyObject *r = PyObject_CallMethod(res, "release", NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* One cache level of CacheController.load: lookup (with LRU touch) +
 * hit/miss counter + word read.  Returns 1 on hit (*val owned), 0 on
 * miss, -1 on error.  Degenerate layouts use the generic protocol. */
static int
load_level(PyObject *cache, PyObject *addr_obj, long long addr,
           PyObject **val)
{
    long long lb, nsets, stamp;
    PyObject *line = NULL;
    if (cache != NULL && Py_IS_TYPE(cache, g_CacheType)
            && ll_of(SLOT(cache, off_sc_lb), &lb) == 0 && lb > 0
            && ll_of(SLOT(cache, off_sc_nsets), &nsets) == 0 && nsets > 0
            && ll_of(SLOT(cache, off_sc_stamp), &stamp) == 0
            && SLOT(cache, off_sc_sets) != NULL
            && PyDict_Check(SLOT(cache, off_sc_sets))) {
        long long base = addr - addr % lb;
        PyObject *skey = PyLong_FromLongLong((base / lb) % nsets);
        if (skey == NULL)
            return -1;
        /* defaultdict: GetItemWithError matches ``.get`` (no
         * __missing__ materialization) */
        PyObject *entry =
            PyDict_GetItemWithError(SLOT(cache, off_sc_sets), skey);
        Py_DECREF(skey);
        if (entry == NULL && PyErr_Occurred())
            return -1;
        if (entry != NULL) {
            if (!PyDict_CheckExact(entry))
                goto generic;
            PyObject *bkey = PyLong_FromLongLong(base);
            if (bkey == NULL)
                return -1;
            line = PyDict_GetItemWithError(entry, bkey);
            Py_DECREF(bkey);
            if (line == NULL && PyErr_Occurred())
                return -1;
        }
        if (line != NULL) {
            if (!Py_IS_TYPE(line, g_LineType)
                    || SLOT(line, off_cl_state) == NULL)
                goto generic;
            if (SLOT(line, off_cl_state) == g_InvalidState)
                line = NULL;
        }
        if (line == NULL)
            return inc_counter(cache, off_sc_misses, "misses");
        /* LRU touch: _stamp += 1; line.last_use = _stamp */
        PyObject *ns = PyLong_FromLongLong(stamp + 1);
        if (ns == NULL)
            return -1;
        slot_store(line, off_cl_lastuse, Py_NewRef(ns));
        slot_store(cache, off_sc_stamp, ns);
        if (inc_counter(cache, off_sc_hits, "hits") < 0)
            return -1;
        PyObject *words = SLOT(line, off_cl_words);
        if (words != NULL && PyDict_CheckExact(words)) {
            PyObject *wkey =
                PyLong_FromLongLong(addr - addr % g_word_bytes);
            if (wkey == NULL)
                return -1;
            PyObject *w = PyDict_GetItemWithError(words, wkey);
            Py_DECREF(wkey);
            if (w == NULL) {
                if (PyErr_Occurred())
                    return -1;
                *val = PyLong_FromLong(0);
                return *val == NULL ? -1 : 1;
            }
            *val = Py_NewRef(w);
            return 1;
        }
        {
            PyObject *w =
                PyObject_CallMethod(line, "read_word", "O", addr_obj);
            if (w == NULL)
                return -1;
            *val = w;
            return 1;
        }
    }
generic:
    {
        PyObject *line_g =
            PyObject_CallMethod(cache, "lookup", "O", addr_obj);
        if (line_g == NULL)
            return -1;
        if (line_g == Py_None) {
            Py_DECREF(line_g);
            return inc_counter(cache, off_sc_misses, "misses");
        }
        if (inc_counter(cache, off_sc_hits, "hits") < 0) {
            Py_DECREF(line_g);
            return -1;
        }
        PyObject *w =
            PyObject_CallMethod(line_g, "read_word", "O", addr_obj);
        Py_DECREF(line_g);
        if (w == NULL)
            return -1;
        *val = w;
        return 1;
    }
}

/* SetAssociativeCache.invalidate replica: drop the line, counting the
 * invalidation only when the popped line was valid. */
static int
cache_invalidate(PyObject *cache, PyObject *addr_obj, long long addr)
{
    long long lb, nsets;
    if (cache != NULL && Py_IS_TYPE(cache, g_CacheType)
            && ll_of(SLOT(cache, off_sc_lb), &lb) == 0 && lb > 0
            && ll_of(SLOT(cache, off_sc_nsets), &nsets) == 0 && nsets > 0
            && SLOT(cache, off_sc_sets) != NULL
            && PyDict_Check(SLOT(cache, off_sc_sets))) {
        long long base = addr - addr % lb;
        PyObject *skey = PyLong_FromLongLong((base / lb) % nsets);
        if (skey == NULL)
            return -1;
        PyObject *entry =
            PyDict_GetItemWithError(SLOT(cache, off_sc_sets), skey);
        Py_DECREF(skey);
        if (entry == NULL)
            return PyErr_Occurred() ? -1 : 0;
        if (!PyDict_CheckExact(entry))
            goto generic;
        PyObject *bkey = PyLong_FromLongLong(base);
        if (bkey == NULL)
            return -1;
        PyObject *line = PyDict_GetItemWithError(entry, bkey);
        if (line == NULL) {
            Py_DECREF(bkey);
            return PyErr_Occurred() ? -1 : 0;
        }
        Py_INCREF(line);
        int dr = PyDict_DelItem(entry, bkey);
        Py_DECREF(bkey);
        if (dr < 0) {
            Py_DECREF(line);
            return -1;
        }
        int valid;
        if (Py_IS_TYPE(line, g_LineType)
                && SLOT(line, off_cl_state) != NULL) {
            valid = SLOT(line, off_cl_state) != g_InvalidState;
        }
        else {
            PyObject *st = PyObject_GetAttrString(line, "state");
            if (st == NULL) {
                Py_DECREF(line);
                return -1;
            }
            valid = st != g_InvalidState;
            Py_DECREF(st);
        }
        Py_DECREF(line);
        if (valid)
            return inc_counter(cache, off_sc_inval, "invalidations");
        return 0;
    }
generic:
    {
        PyObject *r =
            PyObject_CallMethod(cache, "invalidate", "O", addr_obj);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
}

/* CacheController._line_changed replica: bump the line's version and
 * pulse its gate; one generic call on any precondition miss. */
static int
ctrl_line_changed(PyObject *ctrl, PyObject *addr_obj, PyObject *line_obj)
{
    PyObject *meta_map = SLOT(ctrl, off_c_meta);
    PyObject *sim_obj = SLOT(ctrl, off_c_sim);
    PyObject *meta = NULL;
    if (meta_map != NULL && PyDict_CheckExact(meta_map)) {
        meta = PyDict_GetItemWithError(meta_map, line_obj);
        if (meta == NULL && PyErr_Occurred())
            return -1;
    }
    if (meta != NULL && Py_IS_TYPE(meta, g_LineMetaType)
            && sim_obj != NULL && Py_IS_TYPE(sim_obj, &Sim_Type)) {
        PyObject *gate = SLOT(meta, off_lm_gate);
        long long version;
        if (gate != NULL && g_fast && Py_IS_TYPE(gate, g_GateType)
                && SLOT(gate, off_g_waiters) != NULL
                && PyList_CheckExact(SLOT(gate, off_g_waiters))
                && ll_of(SLOT(meta, off_lm_version), &version) == 0) {
            PyObject *nv = PyLong_FromLongLong(version + 1);
            if (nv == NULL)
                return -1;
            slot_store(meta, off_lm_version, nv);
            return gate_pulse_commit((SimObject *)sim_obj, gate);
        }
    }
    PyObject *r =
        PyObject_CallMethodObjArgs(ctrl, s_line_changed, addr_obj, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Message replica: tp_alloc + slot fill, id drawn from the shared
 * counter at construction time, exactly like Message.__init__. */
static PyObject *
msg_new(PyObject *kind, PyObject *src, PyObject *dst, PyObject *addr,
        PyObject *payload, PyObject *requester, PyObject *size)
{
    PyObject *m = g_MsgType->tp_alloc(g_MsgType, 0);
    if (m == NULL)
        return NULL;
    PyObject *mid = PyIter_Next(g_MsgIds);
    if (mid == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "message id counter exhausted");
        Py_DECREF(m);
        return NULL;
    }
#define ORNONE(x) ((x) != NULL ? (x) : Py_None)
    SLOT(m, off_m_kind) = Py_NewRef(kind);
    SLOT(m, off_m_src) = Py_NewRef(ORNONE(src));
    SLOT(m, off_m_dst) = Py_NewRef(ORNONE(dst));
    SLOT(m, off_m_addr) = Py_NewRef(ORNONE(addr));
    SLOT(m, off_m_value) = Py_NewRef(Py_None);
    SLOT(m, off_m_payload) = Py_NewRef(ORNONE(payload));
    SLOT(m, off_m_reply_to) = Py_NewRef(Py_None);
    SLOT(m, off_m_requester) = Py_NewRef(ORNONE(requester));
    SLOT(m, off_m_dst_cpu) = Py_NewRef(Py_None);
    SLOT(m, off_m_retransmit) = Py_NewRef(Py_False);
    SLOT(m, off_m_size) = Py_NewRef(size);
    SLOT(m, off_m_id) = mid;
#undef ORNONE
    return m;
}

/* ---- the coroutine object ---- */

enum {
    CORO_EGRESS = 1,
    CORO_LOAD,
    CORO_INV,
    CORO_GETS,
    CORO_RF,
};

/* per-port states; 0 is always "not started" */
enum { EG_ACQ = 1, EG_OCC = 2 };
enum { LD_L1 = 1, LD_L2 = 2, LD_MISS = 3 };
enum { IV_L2 = 1, IV_ACK = 2 };
enum { GS_ACQ = 1, GS_DIR = 2, GS_OWNED = 3 };
enum { RF_ACQ = 1, RF_OCC = 2, RF_RES = 3, RF_SEND = 4 };
#define ST_DONE (-1)
#define ST_DELEG 9   /* whole-body delegation to the Python twin */

typedef struct {
    PyObject_HEAD
    int port;
    int state;
    long long ll;                 /* the port's address operand */
    PyObject *a, *b, *c, *d, *e;
    PyObject *sub;                /* active delegation target */
} CoroObject;

static PySendResult coro_step(CoroObject *co, PyObject *arg,
                              PyObject *exc, PyObject **result);
static PyObject *load_coro_or_py(PyObject *ctrl, PyObject *addr_obj);
static PyObject *egress_coro_or_py(PyObject *hub, PyObject *msg);

static PyObject *
coro_alloc(int port, PyObject *a, PyObject *b, PyObject *c, long long ll)
{
    CoroObject *co = PyObject_GC_New(CoroObject, &Coro_Type);
    if (co == NULL)
        return NULL;
    co->port = port;
    co->state = 0;
    co->ll = ll;
    co->a = Py_XNewRef(a);
    co->b = Py_XNewRef(b);
    co->c = Py_XNewRef(c);
    co->d = co->e = co->sub = NULL;
    PyObject_GC_Track((PyObject *)co);
    return (PyObject *)co;
}

/* factories: a compiled coroutine when the receiver matches the armed
 * layouts, the Python twin generator otherwise */
static PyObject *
egress_coro_or_py(PyObject *hub, PyObject *msg)
{
    if (g_model_fast && PyObject_TypeCheck(hub, g_HubType)
            && Py_IS_TYPE(msg, g_MsgType))
        return coro_alloc(CORO_EGRESS, hub, msg, NULL, 0);
    return PyObject_CallFunctionObjArgs(g_EgressSendPy, hub, msg, NULL);
}

static PyObject *
load_coro_or_py(PyObject *ctrl, PyObject *addr_obj)
{
    long long a;
    if (g_model_fast && PyObject_TypeCheck(ctrl, g_CtrlType)
            && ll_of(addr_obj, &a) == 0 && a >= 0) {
        PyObject *l1 = SLOT(ctrl, off_c_l1);
        PyObject *l2 = SLOT(ctrl, off_c_l2);
        if (l1 != NULL && l2 != NULL && Py_IS_TYPE(l1, g_CacheType)
                && Py_IS_TYPE(l2, g_CacheType)) {
            CoroObject *co =
                (CoroObject *)coro_alloc(CORO_LOAD, ctrl, addr_obj, l1, a);
            if (co == NULL)
                return NULL;
            co->d = Py_NewRef(l2);
            return (PyObject *)co;
        }
    }
    return PyObject_CallFunctionObjArgs(g_CtrlLoadPy, ctrl, addr_obj, NULL);
}

static PyObject *
inv_coro_or_py(PyObject *ctrl, PyObject *msg)
{
    long long a;
    if (g_model_fast && PyObject_TypeCheck(ctrl, g_CtrlType)
            && Py_IS_TYPE(msg, g_MsgType)
            && ll_of(SLOT(msg, off_m_addr), &a) == 0 && a >= 0)
        return coro_alloc(CORO_INV, ctrl, msg, NULL, a);
    return PyObject_CallFunctionObjArgs(g_CtrlInvPy, ctrl, msg, NULL);
}

static PyObject *
gets_coro_or_py(PyObject *engine, PyObject *msg)
{
    long long a;
    if (g_model_fast && PyObject_TypeCheck(engine, g_HomeType)
            && Py_IS_TYPE(msg, g_MsgType)
            && ll_of(SLOT(msg, off_m_addr), &a) == 0 && a >= 0
            && SLOT(engine, off_he_tdir) != NULL)
        return coro_alloc(CORO_GETS, engine, msg, NULL, a);
    return PyObject_CallFunctionObjArgs(g_ServeGetSPy, engine, msg, NULL);
}

static PyObject *
rf_coro_or_py(PyObject *engine, PyObject *msg, PyObject *words)
{
    if (g_model_fast && PyObject_TypeCheck(engine, g_HomeType)
            && Py_IS_TYPE(msg, g_MsgType))
        return coro_alloc(CORO_RF, engine, msg, words, 0);
    return PyObject_CallFunctionObjArgs(g_FinishCleanPy, engine, msg,
                                        words, NULL);
}

/* step the active delegation target: 1 = yielded (*out), 0 = returned
 * (*out = return value), -1 = error (sub cleared in both end cases) */
static int
sub_send(CoroObject *co, PyObject *arg, PyObject **out)
{
    PyObject *res = NULL;
    PySendResult sr = PyIter_Send(co->sub, arg, &res);
    if (sr == PYGEN_NEXT) {
        *out = res;
        return 1;
    }
    Py_CLEAR(co->sub);
    if (sr == PYGEN_RETURN) {
        *out = res;
        return 0;
    }
    return -1;
}

static int
sub_throw(CoroObject *co, PyObject *exc, PyObject **out)
{
    PyObject *res = PyObject_CallMethodOneArg(co->sub, s_throw, exc);
    if (res != NULL) {
        *out = res;
        return 1;
    }
    Py_CLEAR(co->sub);
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *t, *v, *tb;
        PyErr_Fetch(&t, &v, &tb);
        PyErr_NormalizeException(&t, &v, &tb);
        PyObject *value = v != NULL ? PyObject_GetAttr(v, s_value)
                                    : Py_NewRef(Py_None);
        Py_XDECREF(t);
        Py_XDECREF(v);
        Py_XDECREF(tb);
        if (value == NULL)
            return -1;
        *out = value;
        return 0;
    }
    return -1;
}

/* swap in a freshly created Python twin; valid only while nothing has
 * been mutated (the twin replays the whole body) */
static int
coro_delegate_py(CoroObject *co, PyObject *fn, PyObject *x, PyObject *y,
                 PyObject *z)
{
    PyObject *gen = z != NULL
        ? PyObject_CallFunctionObjArgs(fn, x, y, z, NULL)
        : PyObject_CallFunctionObjArgs(fn, x, y, NULL);
    if (gen == NULL)
        return -1;
    Py_XSETREF(co->sub, gen);
    co->state = ST_DELEG;
    return 0;
}

/* The heart: advance one state machine.  ``arg`` (borrowed) is the
 * sent value; when ``exc`` (borrowed exception instance) is non-NULL
 * the resume is a throw.  PYGEN_NEXT/PYGEN_RETURN hand an owned
 * *result; PYGEN_ERROR leaves the exception set. */
static PySendResult
coro_step(CoroObject *co, PyObject *arg, PyObject *exc, PyObject **result)
{
    *result = NULL;
    if (co->state == ST_DONE) {
        if (exc != NULL)
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        else
            PyErr_SetNone(PyExc_StopIteration);
        return PYGEN_ERROR;
    }
    if (co->state == ST_DELEG) {
        int r = exc != NULL ? sub_throw(co, exc, result)
                            : sub_send(co, arg, result);
        if (r < 0)
            goto error_done;
        if (r == 1)
            return PYGEN_NEXT;
        co->state = ST_DONE;
        return PYGEN_RETURN;
    }

    switch (co->port) {
    /* -------------------- Hub.egress_send -------------------- */
    case CORO_EGRESS: {
        PyObject *hub = co->a, *msg = co->b;
        if (co->state == 0) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *kind = SLOT(msg, off_m_kind);
            PyObject *occ = NULL, *res, *acq;
            if (kind == NULL)
                goto egress_py;
            if (kind == g_WordUpdateKind) {
                occ = SLOT(hub, off_h_t_update);
            }
            else {
                PyObject *cl = PyObject_GetAttr(kind, s_carries_line);
                if (cl == NULL)
                    goto error_done;
                int truth = PyObject_IsTrue(cl);
                Py_DECREF(cl);
                if (truth < 0)
                    goto error_done;
                occ = SLOT(hub, truth ? off_h_t_line : off_h_t_ctrl);
            }
            res = SLOT(hub, off_h_egress);
            if (occ == NULL || res == NULL || !g_fast
                    || !Py_IS_TYPE(res, g_ResourceType))
                goto egress_py;
            acq = SLOT(res, off_r_acquire);
            if (acq == NULL || !Py_IS_TYPE(acq, g_AcquireType))
                goto egress_py;
            Py_XSETREF(co->c, Py_NewRef(occ));
            Py_XSETREF(co->d, Py_NewRef(res));
            co->state = EG_ACQ;
            *result = Py_NewRef(acq);
            return PYGEN_NEXT;
        egress_py:
            if (coro_delegate_py(co, g_EgressSendPy, hub, msg, NULL) < 0)
                goto error_done;
            return coro_step(co, Py_None, NULL, result);
        }
        if (co->state == EG_ACQ) {
            /* the resource is ours; enter the try block */
            if (exc != NULL)
                goto reraise_done;      /* acquire yield is outside it */
            co->state = EG_OCC;
            *result = Py_NewRef(co->c);
            return PYGEN_NEXT;
        }
        if (co->state == EG_OCC) {
            /* finally: release — on normal resume and on throw */
            if (resource_release(co->d) < 0)
                goto error_done;
            if (exc != NULL)
                goto reraise_done;
            PyObject *net = Py_XNewRef(SLOT(hub, off_h_net));
            if (net == NULL) {
                net = PyObject_GetAttr(hub, s_net);
                if (net == NULL)
                    goto error_done;
            }
            /* fetched generically so fuzz wrappers stay honored */
            PyObject *sender = PyObject_GetAttr(net, s_send);
            Py_DECREF(net);
            if (sender == NULL)
                goto error_done;
            PyObject *sres = PyObject_CallOneArg(sender, msg);
            Py_DECREF(sender);
            if (sres == NULL)
                goto error_done;
            Py_DECREF(sres);
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        }
        break;
    }
    /* ------------------ CacheController.load ------------------ */
    case CORO_LOAD: {
        PyObject *ctrl = co->a, *addr_obj = co->b;
        if (co->state == 0) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *t1 = SLOT(ctrl, off_c_t_l1);
            if (t1 == NULL) {
                if (coro_delegate_py(co, g_CtrlLoadPy, ctrl, addr_obj,
                                     NULL) < 0)
                    goto error_done;
                return coro_step(co, Py_None, NULL, result);
            }
            co->state = LD_L1;
            *result = Py_NewRef(t1);
            return PYGEN_NEXT;
        }
        if (co->state == LD_L1) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *val = NULL;
            int r = load_level(co->c, addr_obj, co->ll, &val);
            if (r < 0)
                goto error_done;
            if (r == 1) {
                co->state = ST_DONE;
                *result = val;
                return PYGEN_RETURN;
            }
            PyObject *t2 = SLOT(ctrl, off_c_t_l2);
            *result = t2 != NULL ? Py_NewRef(t2)
                                 : PyObject_GetAttrString(ctrl, "_t_l2");
            if (*result == NULL)
                goto error_done;
            co->state = LD_L2;
            return PYGEN_NEXT;
        }
        if (co->state == LD_L2) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *val = NULL;
            int r = load_level(co->d, addr_obj, co->ll, &val);
            if (r < 0)
                goto error_done;
            if (r == 1) {
                PyObject *fr = PyObject_CallMethodObjArgs(
                    ctrl, s_fill_l1, addr_obj, val, NULL);
                if (fr == NULL) {
                    Py_DECREF(val);
                    goto error_done;
                }
                Py_DECREF(fr);
                co->state = ST_DONE;
                *result = val;
                return PYGEN_RETURN;
            }
            /* both levels missed: delegate the cold fetch tail */
            PyObject *sub = PyObject_CallMethodObjArgs(
                ctrl, s_load_miss, addr_obj, NULL);
            if (sub == NULL)
                goto error_done;
            Py_XSETREF(co->sub, sub);
            co->state = LD_MISS;
            int rr = sub_send(co, Py_None, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            co->state = ST_DONE;
            return PYGEN_RETURN;
        }
        if (co->state == LD_MISS) {
            int rr = exc != NULL ? sub_throw(co, exc, result)
                                 : sub_send(co, arg, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            co->state = ST_DONE;
            return PYGEN_RETURN;
        }
        break;
    }
    /* ------------- CacheController._do_invalidate ------------- */
    case CORO_INV: {
        PyObject *ctrl = co->a, *msg = co->b;
        if (co->state == 0) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *t2 = SLOT(ctrl, off_c_t_l2);
            if (t2 == NULL) {
                if (coro_delegate_py(co, g_CtrlInvPy, ctrl, msg,
                                     NULL) < 0)
                    goto error_done;
                return coro_step(co, Py_None, NULL, result);
            }
            co->state = IV_L2;
            *result = Py_NewRef(t2);
            return PYGEN_NEXT;
        }
        if (co->state == IV_L2) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *addr_obj = SLOT(msg, off_m_addr);
            long long addr = co->ll;
            PyObject *line_obj =
                PyLong_FromLongLong(addr - addr % g_line_bytes);
            if (line_obj == NULL || addr_obj == NULL) {
                Py_XDECREF(line_obj);
                if (addr_obj == NULL)
                    PyErr_SetString(PyExc_AttributeError, "addr");
                goto error_done;
            }
            /* poison any racing non-exclusive MSHR */
            PyObject *inflight = SLOT(ctrl, off_c_inflight);
            PyObject *mshr = NULL;
            int own_mshr = 0;
            if (inflight != NULL && PyDict_CheckExact(inflight)) {
                mshr = PyDict_GetItemWithError(inflight, line_obj);
                if (mshr == NULL && PyErr_Occurred())
                    goto iv_err_line;
            }
            else if (inflight != NULL) {
                PyObject *g = PyObject_CallMethod(inflight, "get", "O",
                                                  line_obj);
                if (g == NULL)
                    goto iv_err_line;
                if (g == Py_None) {
                    Py_DECREF(g);
                }
                else {
                    mshr = g;
                    own_mshr = 1;
                }
            }
            if (mshr != NULL) {
                int excl;
                if (PyDict_CheckExact(mshr)) {
                    PyObject *ex =
                        PyDict_GetItemWithError(mshr, s_exclusive);
                    if (ex == NULL) {
                        if (!PyErr_Occurred())
                            PyErr_SetObject(PyExc_KeyError, s_exclusive);
                        goto iv_err_mshr;
                    }
                    excl = PyObject_IsTrue(ex);
                }
                else {
                    PyObject *ex = PyObject_GetItem(mshr, s_exclusive);
                    if (ex == NULL)
                        goto iv_err_mshr;
                    excl = PyObject_IsTrue(ex);
                    Py_DECREF(ex);
                }
                if (excl < 0)
                    goto iv_err_mshr;
                if (!excl) {
                    int sr = PyDict_CheckExact(mshr)
                        ? PyDict_SetItem(mshr, s_poisoned, Py_True)
                        : PyObject_SetItem(mshr, s_poisoned, Py_True);
                    if (sr < 0)
                        goto iv_err_mshr;
                }
                if (own_mshr)
                    Py_DECREF(mshr);
            }
            if (cache_invalidate(SLOT(ctrl, off_c_l1), addr_obj,
                                 addr) < 0)
                goto iv_err_line;
            if (cache_invalidate(SLOT(ctrl, off_c_l2), addr_obj,
                                 addr) < 0)
                goto iv_err_line;
            PyObject *resv = SLOT(ctrl, off_c_resv);
            if (resv != NULL && resv != Py_None) {
                int eq = PyObject_RichCompareBool(resv, line_obj, Py_EQ);
                if (eq < 0)
                    goto iv_err_line;
                if (eq)
                    slot_store(ctrl, off_c_resv, Py_NewRef(Py_None));
            }
            if (ctrl_line_changed(ctrl, addr_obj, line_obj) < 0)
                goto iv_err_line;
            Py_DECREF(line_obj);
            /* the INV_ACK back to the requester's collection latch */
            {
                PyObject *ack = msg_new(g_InvAckKind,
                                        SLOT(ctrl, off_c_node),
                                        SLOT(msg, off_m_src), addr_obj,
                                        SLOT(msg, off_m_payload),
                                        SLOT(ctrl, off_c_cpu),
                                        g_InvAckBytes);
                if (ack == NULL)
                    goto error_done;
                PyObject *hub = SLOT(ctrl, off_c_hub);
                PyObject *sub = NULL;
                if (hub != NULL) {
                    sub = egress_coro_or_py(hub, ack);
                }
                else {
                    PyErr_SetString(PyExc_AttributeError, "hub");
                }
                Py_DECREF(ack);
                if (sub == NULL)
                    goto error_done;
                Py_XSETREF(co->sub, sub);
            }
            co->state = IV_ACK;
            int rr = sub_send(co, Py_None, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            Py_CLEAR(*result);
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        iv_err_mshr:
            if (own_mshr)
                Py_XDECREF(mshr);
        iv_err_line:
            Py_DECREF(line_obj);
            goto error_done;
        }
        if (co->state == IV_ACK) {
            int rr = exc != NULL ? sub_throw(co, exc, result)
                                 : sub_send(co, arg, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            Py_CLEAR(*result);
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        }
        break;
    }
    /* --------------- HomeEngine._serve_get_s ------------------ */
    case CORO_GETS: {
        PyObject *eng = co->a, *msg = co->b;
        if (co->state == 0) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *dir = SLOT(eng, off_he_dir);
            long long addr = co->ll;
            PyObject *ent = NULL;
            if (dir != NULL) {
                /* get-or-create, so the twin repeating it is safe */
                PyObject *line_obj =
                    PyLong_FromLongLong(addr - addr % g_line_bytes);
                if (line_obj == NULL)
                    goto error_done;
                ent = PyObject_CallMethodObjArgs(dir, s_entry, line_obj,
                                                 NULL);
                Py_DECREF(line_obj);
                if (ent == NULL)
                    goto error_done;
            }
            PyObject *busy = NULL, *acq = NULL;
            if (ent == NULL || !Py_IS_TYPE(ent, g_DirEntType) || !g_fast
                    || (busy = SLOT(ent, off_de_busy)) == NULL
                    || !Py_IS_TYPE(busy, g_ResourceType)
                    || (acq = SLOT(busy, off_r_acquire)) == NULL
                    || !Py_IS_TYPE(acq, g_AcquireType)) {
                Py_XDECREF(ent);
                if (coro_delegate_py(co, g_ServeGetSPy, eng, msg,
                                     NULL) < 0)
                    goto error_done;
                return coro_step(co, Py_None, NULL, result);
            }
            if (inc_counter(eng, off_he_gets, "get_s_served") < 0) {
                Py_DECREF(ent);
                goto error_done;
            }
            Py_XSETREF(co->c, ent);
            Py_XSETREF(co->d, Py_NewRef(busy));
            co->state = GS_ACQ;
            *result = Py_NewRef(acq);
            return PYGEN_NEXT;
        }
        if (co->state == GS_ACQ) {
            /* the busy bit is ours; enter the try block */
            if (exc != NULL)
                goto reraise_done;  /* acquire yield precedes the try */
            PyObject *td = SLOT(eng, off_he_tdir);
            if (td == NULL) {
                PyErr_SetString(PyExc_AttributeError, "_t_dir");
                goto gets_err_rel;
            }
            co->state = GS_DIR;
            *result = Py_NewRef(td);
            return PYGEN_NEXT;
        }
        if (co->state == GS_DIR) {
            if (exc != NULL) {
                /* finally: release, then let the throw propagate */
                if (resource_release(co->d) < 0)
                    goto error_done;
                goto reraise_done;
            }
            PyObject *ent = co->c;
            PyObject *st = SLOT(ent, off_de_state);
            if (st == NULL) {
                PyErr_SetString(PyExc_AttributeError, "state");
                goto gets_err_rel;
            }
            if (st == g_DirExclusive) {
                /* 3-hop tail stays in Python (rare for sync lines) */
                PyObject *sub = PyObject_CallMethodObjArgs(
                    eng, s_get_s_owned, msg, ent, NULL);
                if (sub == NULL)
                    goto gets_err_rel;
                Py_XSETREF(co->sub, sub);
                co->state = GS_OWNED;
                int rr = sub_send(co, Py_None, result);
                if (rr < 0)
                    goto gets_err_rel;
                if (rr == 1)
                    return PYGEN_NEXT;
                Py_CLEAR(*result);
                goto gets_finish;
            }
            /* clean read (HomeEngine._get_s_clean replica) */
            {
                PyObject *backing = SLOT(eng, off_he_backing);
                PyObject *lb = SLOT(eng, off_he_lb);
                PyObject *sim_obj = SLOT(eng, off_he_sim);
                PyObject *req = SLOT(msg, off_m_requester);
                PyObject *line_obj = SLOT(ent, off_de_line);
                PyObject *mask = SLOT(ent, off_de_mask);
                if (backing == NULL || lb == NULL || sim_obj == NULL
                        || req == NULL || line_obj == NULL
                        || mask == NULL) {
                    PyErr_SetString(PyExc_AttributeError,
                                    "home engine slots incomplete");
                    goto gets_err_rel;
                }
                PyObject *words = PyObject_CallMethodObjArgs(
                    backing, s_read_line, line_obj, lb, NULL);
                if (words == NULL)
                    goto gets_err_rel;
                PyObject *bit = PyNumber_Lshift(g_one, req);
                PyObject *nmask =
                    bit != NULL ? PyNumber_Or(mask, bit) : NULL;
                Py_XDECREF(bit);
                if (nmask == NULL) {
                    Py_DECREF(words);
                    goto gets_err_rel;
                }
                slot_store(ent, off_de_mask, nmask);
                slot_store(ent, off_de_state, Py_NewRef(g_DirShared));
                if (inc_counter(ent, off_de_version, "version") < 0) {
                    Py_DECREF(words);
                    goto gets_err_rel;
                }
                PyObject *rf = rf_coro_or_py(eng, msg, words);
                Py_DECREF(words);
                if (rf == NULL)
                    goto gets_err_rel;
                PyObject *name = SLOT(eng, off_he_name_rf);
                PyObject *sr = name != NULL
                    ? PyObject_CallMethodObjArgs(sim_obj, s_spawn, rf,
                                                 name, NULL)
                    : PyObject_CallMethodObjArgs(sim_obj, s_spawn, rf,
                                                 NULL);
                Py_DECREF(rf);
                if (sr == NULL)
                    goto gets_err_rel;
                Py_DECREF(sr);
            }
            goto gets_finish;
        gets_err_rel:
            /* finally under an in-flight error: release with the error
             * parked; a failing release wins (replaces it) */
            {
                PyObject *t, *v, *tb;
                PyErr_Fetch(&t, &v, &tb);
                if (resource_release(co->d) < 0) {
                    Py_XDECREF(t);
                    Py_XDECREF(v);
                    Py_XDECREF(tb);
                }
                else {
                    PyErr_Restore(t, v, tb);
                }
            }
            goto error_done;
        gets_finish:
            if (resource_release(co->d) < 0)
                goto error_done;
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        }
        if (co->state == GS_OWNED) {
            int rr = exc != NULL ? sub_throw(co, exc, result)
                                 : sub_send(co, arg, result);
            if (rr < 0)
                goto gets_err_rel;
            if (rr == 1)
                return PYGEN_NEXT;
            Py_CLEAR(*result);
            goto gets_finish;
        }
        break;
    }
    /* ------------- HomeEngine._finish_clean_read -------------- */
    case CORO_RF: {
        PyObject *eng = co->a, *msg = co->b;
        if (co->state == 0) {
            if (exc != NULL)
                goto reraise_done;
            PyObject *dram = SLOT(eng, off_he_dram);
            PyObject *chan = NULL, *acq = NULL, *occ = NULL, *resid_obj;
            long long resid = 0;
            if (dram == NULL || !Py_IS_TYPE(dram, g_DramType) || !g_fast
                    || (chan = SLOT(dram, off_dr_chan)) == NULL
                    || !Py_IS_TYPE(chan, g_ResourceType)
                    || (acq = SLOT(chan, off_r_acquire)) == NULL
                    || !Py_IS_TYPE(acq, g_AcquireType)
                    || (occ = SLOT(dram, off_dr_t_occ)) == NULL
                    || SLOT(dram, off_dr_t_res) == NULL
                    || (resid_obj = SLOT(dram, off_dr_resid)) == NULL
                    || ll_of(resid_obj, &resid) < 0) {
                PyErr_Clear();
                if (coro_delegate_py(co, g_FinishCleanPy, eng, msg,
                                     co->c) < 0)
                    goto error_done;
                return coro_step(co, Py_None, NULL, result);
            }
            if (inc_counter(dram, off_dr_lineacc, "line_accesses") < 0)
                goto error_done;
            co->ll = resid;
            Py_XSETREF(co->d, Py_NewRef(chan));
            Py_XSETREF(co->e, Py_NewRef(occ));
            co->state = RF_ACQ;
            *result = Py_NewRef(acq);
            return PYGEN_NEXT;
        }
        if (co->state == RF_ACQ) {
            /* the channel is ours; enter the try block */
            if (exc != NULL)
                goto reraise_done;
            co->state = RF_OCC;
            *result = Py_NewRef(co->e);
            return PYGEN_NEXT;
        }
        if (co->state == RF_OCC) {
            /* finally: release — on normal resume and on throw */
            if (resource_release(co->d) < 0)
                goto error_done;
            if (exc != NULL)
                goto reraise_done;
            if (co->ll > 0) {
                PyObject *dram = SLOT(eng, off_he_dram);
                PyObject *tres =
                    dram != NULL ? SLOT(dram, off_dr_t_res) : NULL;
                if (tres == NULL) {
                    PyErr_SetString(PyExc_AttributeError, "_t_line_res");
                    goto error_done;
                }
                co->state = RF_RES;
                *result = Py_NewRef(tres);
                return PYGEN_NEXT;
            }
            goto rf_send;
        }
        if (co->state == RF_RES) {
            if (exc != NULL)
                goto reraise_done;
            goto rf_send;
        }
        if (co->state == RF_SEND) {
            int rr = exc != NULL ? sub_throw(co, exc, result)
                                 : sub_send(co, arg, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            Py_CLEAR(*result);
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        }
        break;

    rf_send:
        {
            PyObject *m = msg_new(g_DataSKind, SLOT(eng, off_he_node),
                                  SLOT(msg, off_m_src),
                                  SLOT(msg, off_m_addr), co->c,
                                  SLOT(msg, off_m_requester),
                                  g_DataSBytes);
            if (m == NULL)
                goto error_done;
            PyObject *rt = SLOT(msg, off_m_reply_to);
            if (rt != NULL && rt != Py_None)
                slot_store(m, off_m_reply_to, Py_NewRef(rt));
            PyObject *hub = SLOT(eng, off_he_hub);
            PyObject *sub = NULL;
            if (hub != NULL)
                sub = egress_coro_or_py(hub, m);
            else
                PyErr_SetString(PyExc_AttributeError, "hub");
            Py_DECREF(m);
            if (sub == NULL)
                goto error_done;
            Py_XSETREF(co->sub, sub);
            co->state = RF_SEND;
            int rr = sub_send(co, Py_None, result);
            if (rr < 0)
                goto error_done;
            if (rr == 1)
                return PYGEN_NEXT;
            Py_CLEAR(*result);
            co->state = ST_DONE;
            *result = Py_NewRef(Py_None);
            return PYGEN_RETURN;
        }
    }
    }
    PyErr_Format(PyExc_SystemError, "ModelCoro: bad state %d/%d",
                 co->port, co->state);
    co->state = ST_DONE;
    return PYGEN_ERROR;

reraise_done:
    co->state = ST_DONE;
    PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    return PYGEN_ERROR;
error_done:
    co->state = ST_DONE;
    return PYGEN_ERROR;
}

/* run pending finally blocks (egress release) and close any sub */
static int
coro_shutdown(CoroObject *co)
{
    int bad = 0;
    if ((co->port == CORO_EGRESS && co->state == EG_OCC)
            || (co->port == CORO_RF && co->state == RF_OCC)) {
        if (co->d != NULL && resource_release(co->d) < 0)
            bad = 1;
    }
    if (co->sub != NULL) {
        PyObject *sub = co->sub;
        co->sub = NULL;
        PyObject *r = PyObject_CallMethod(sub, "close", NULL);
        Py_DECREF(sub);
        if (r == NULL)
            bad = 1;
        else
            Py_DECREF(r);
    }
    /* the GET_S finally releases after its sub's own finalizers ran */
    if (co->port == CORO_GETS
            && (co->state == GS_DIR || co->state == GS_OWNED)
            && co->d != NULL) {
        if (resource_release(co->d) < 0)
            bad = 1;
    }
    co->state = ST_DONE;
    return bad ? -1 : 0;
}

static PySendResult
coro_am_send(PyObject *self, PyObject *arg, PyObject **result)
{
    return coro_step((CoroObject *)self, arg, NULL, result);
}

static PyObject *
coro_iternext(PyObject *self)
{
    PyObject *res = NULL;
    switch (coro_step((CoroObject *)self, Py_None, NULL, &res)) {
    case PYGEN_NEXT:
        return res;
    case PYGEN_RETURN:
        set_stop_iteration_exc(res == Py_None ? NULL : res);
        Py_XDECREF(res);
        return NULL;
    default:
        return NULL;
    }
}

static PyObject *
coro_send_meth(PyObject *self, PyObject *arg)
{
    PyObject *res = NULL;
    switch (coro_step((CoroObject *)self, arg, NULL, &res)) {
    case PYGEN_NEXT:
        return res;
    case PYGEN_RETURN:
        set_stop_iteration_exc(res);
        Py_XDECREF(res);
        return NULL;
    default:
        return NULL;
    }
}

static PyObject *
coro_throw_meth(PyObject *self, PyObject *args)
{
    PyObject *typ, *val = NULL, *tb = NULL;
    if (!PyArg_ParseTuple(args, "O|OO:throw", &typ, &val, &tb))
        return NULL;
    PyObject *exc;
    if (PyExceptionInstance_Check(typ)
            && (val == NULL || val == Py_None)) {
        exc = Py_NewRef(typ);
    }
    else if (PyExceptionClass_Check(typ)) {
        PyErr_SetObject(typ, val == Py_None ? NULL : val);
        PyObject *t, *v, *tb2;
        PyErr_Fetch(&t, &v, &tb2);
        PyErr_NormalizeException(&t, &v, &tb2);
        exc = v;
        Py_XDECREF(t);
        Py_XDECREF(tb2);
        if (exc == NULL)
            return NULL;
    }
    else {
        PyErr_SetString(PyExc_TypeError,
                        "exceptions must be classes or instances");
        return NULL;
    }
    if (tb != NULL && tb != Py_None
            && PyException_SetTraceback(exc, tb) < 0) {
        Py_DECREF(exc);
        return NULL;
    }
    PyObject *res = NULL;
    PySendResult sr =
        coro_step((CoroObject *)self, NULL, exc, &res);
    Py_DECREF(exc);
    switch (sr) {
    case PYGEN_NEXT:
        return res;
    case PYGEN_RETURN:
        set_stop_iteration_exc(res);
        Py_XDECREF(res);
        return NULL;
    default:
        return NULL;
    }
}

static PyObject *
coro_close_meth(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    if (coro_shutdown((CoroObject *)self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
coro_traverse(PyObject *self, visitproc visit, void *arg)
{
    CoroObject *co = (CoroObject *)self;
    Py_VISIT(co->a);
    Py_VISIT(co->b);
    Py_VISIT(co->c);
    Py_VISIT(co->d);
    Py_VISIT(co->e);
    Py_VISIT(co->sub);
    return 0;
}

static int
coro_clear(PyObject *self)
{
    CoroObject *co = (CoroObject *)self;
    co->state = ST_DONE;        /* nothing left to finalize */
    Py_CLEAR(co->a);
    Py_CLEAR(co->b);
    Py_CLEAR(co->c);
    Py_CLEAR(co->d);
    Py_CLEAR(co->e);
    Py_CLEAR(co->sub);
    return 0;
}

/* Run pending finalizers the way a dying suspended generator would.
 * As a tp_finalize (PEP 442) the collector calls this before it clears
 * any object of an unreachable cycle, so the resource a suspended
 * egress still holds is intact when it is released. */
static void
coro_finalize(PyObject *self)
{
    CoroObject *co = (CoroObject *)self;
    if (co->state > 0 || co->sub != NULL) {
        PyObject *et, *ev, *etb;
        PyErr_Fetch(&et, &ev, &etb);
        if (coro_shutdown(co) < 0)
            PyErr_WriteUnraisable(self);
        PyErr_Restore(et, ev, etb);
    }
}

static void
coro_dealloc(PyObject *self)
{
    CoroObject *co = (CoroObject *)self;
    if (co->state > 0 || co->sub != NULL) {
        if (PyObject_CallFinalizerFromDealloc(self) < 0)
            return;             /* resurrected by a finalizer */
    }
    PyObject_GC_UnTrack(self);
    (void)coro_clear(self);
    PyObject_GC_Del(self);
}

static PyAsyncMethods coro_as_async = {
    .am_send = coro_am_send,
};

static PyMethodDef coro_methods[] = {
    {"send", coro_send_meth, METH_O,
     "Resume the coroutine with a value."},
    {"throw", coro_throw_meth, METH_VARARGS,
     "Raise an exception inside the coroutine."},
    {"close", coro_close_meth, METH_NOARGS,
     "Run pending finalizers and mark the coroutine finished."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Coro_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.backends._accel_core.ModelCoro",
    .tp_basicsize = sizeof(CoroObject),
    .tp_dealloc = coro_dealloc,
    .tp_as_async = &coro_as_async,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = coro_traverse,
    .tp_clear = coro_clear,
    .tp_finalize = coro_finalize,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = coro_iternext,
    .tp_methods = coro_methods,
    .tp_doc = "Compiled model coroutine (egress/load/invalidate/GET_S).",
};

/* ---- module-level factories (what the Accel subclasses call) ---- */

static PyObject *
mod_egress_send(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "egress_send expects (hub, msg)");
        return NULL;
    }
    if (g_EgressSendPy == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "model paths not armed");
        return NULL;
    }
    return egress_coro_or_py(args[0], args[1]);
}

static PyObject *
mod_ctrl_load(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "ctrl_load expects (ctrl, addr)");
        return NULL;
    }
    if (g_CtrlLoadPy == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "model paths not armed");
        return NULL;
    }
    return load_coro_or_py(args[0], args[1]);
}

static PyObject *
mod_ctrl_do_invalidate(PyObject *mod, PyObject *const *args,
                       Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "ctrl_do_invalidate expects (ctrl, msg)");
        return NULL;
    }
    if (g_CtrlInvPy == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "model paths not armed");
        return NULL;
    }
    return inv_coro_or_py(args[0], args[1]);
}

static PyObject *
mod_serve_get_s(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "serve_get_s expects (engine, msg)");
        return NULL;
    }
    if (g_ServeGetSPy == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "model paths not armed");
        return NULL;
    }
    return gets_coro_or_py(args[0], args[1]);
}

static PyObject *
mod_finish_clean_read(PyObject *mod, PyObject *const *args,
                      Py_ssize_t nargs)
{
    (void)mod;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "finish_clean_read expects (engine, msg, words)");
        return NULL;
    }
    if (g_FinishCleanPy == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "model paths not armed");
        return NULL;
    }
    return rf_coro_or_py(args[0], args[1], args[2]);
}

/* Bind the model layer's types/callables and resolve their slot
 * offsets.  Called lazily by repro.sim.backends.model (the model
 * classes import this module, so module init cannot).  Returns whether
 * the compiled model paths are armed; a mismatched slot layout simply
 * reports False and every path stays pure Python. */
static PyObject *
mod_arm_model(PyObject *mod, PyObject *spec)
{
    (void)mod;
    if (!PyDict_Check(spec)) {
        PyErr_SetString(PyExc_TypeError, "arm_model expects a dict");
        return NULL;
    }
    g_model_fast = 0;
#define FETCH(var, name)                                            \
    do {                                                            \
        PyObject *obj = PyDict_GetItemString(spec, name);           \
        if (obj == NULL) {                                          \
            PyErr_Format(PyExc_KeyError, "arm_model: missing %s",   \
                         name);                                     \
            return NULL;                                            \
        }                                                           \
        Py_XSETREF(var, Py_NewRef(obj));                            \
    } while (0)
#define FETCH_TYPE(var, name)                                       \
    do {                                                            \
        PyObject *obj = PyDict_GetItemString(spec, name);           \
        if (obj == NULL || !PyType_Check(obj)) {                    \
            PyErr_Format(PyExc_TypeError,                           \
                         "arm_model: %s must be a type", name);     \
            return NULL;                                            \
        }                                                           \
        Py_XSETREF(var, (PyTypeObject *)Py_NewRef(obj));            \
    } while (0)
    FETCH_TYPE(g_MsgType, "Message");
    FETCH_TYPE(g_HubType, "Hub");
    FETCH_TYPE(g_CtrlType, "CacheController");
    FETCH_TYPE(g_CacheType, "Cache");
    FETCH_TYPE(g_LineType, "CacheLine");
    FETCH_TYPE(g_LineMetaType, "LineMeta");
    FETCH_TYPE(g_StatsType, "TrafficStats");
    FETCH_TYPE(g_HomeType, "HomeEngine");
    FETCH_TYPE(g_DirEntType, "DirectoryEntry");
    FETCH_TYPE(g_DramType, "Dram");
    FETCH(g_WordUpdateKind, "WORD_UPDATE");
    FETCH(g_InvalidState, "INVALID");
    FETCH(g_MsgIds, "msg_ids");
    FETCH(g_NetSend, "net_send");
    FETCH(g_NetDeliver, "net_deliver");
    FETCH(g_HubReceive, "hub_receive");
    FETCH(g_EgressSendPy, "hub_egress_send");
    FETCH(g_CtrlLoadPy, "ctrl_load");
    FETCH(g_CtrlInvPy, "ctrl_do_invalidate");
    FETCH(g_InvAckKind, "INV_ACK");
    FETCH(g_ServeGetSPy, "serve_get_s");
    FETCH(g_FinishCleanPy, "finish_clean_read");
    FETCH(g_DataSKind, "DATA_S");
    FETCH(g_DirExclusive, "DIR_EXCLUSIVE");
    FETCH(g_DirShared, "DIR_SHARED");
#undef FETCH
#undef FETCH_TYPE
    {
        PyObject *pb = PyObject_GetAttr(g_InvAckKind, s_packet_bytes);
        if (pb == NULL)
            return NULL;
        Py_XSETREF(g_InvAckBytes, pb);
        pb = PyObject_GetAttr(g_DataSKind, s_packet_bytes);
        if (pb == NULL)
            return NULL;
        Py_XSETREF(g_DataSBytes, pb);
    }
    {
        PyObject *lb = PyDict_GetItemString(spec, "LINE_BYTES");
        PyObject *wb = PyDict_GetItemString(spec, "WORD_BYTES");
        if (lb == NULL || wb == NULL
                || ll_of(lb, &g_line_bytes) < 0 || g_line_bytes <= 0
                || ll_of(wb, &g_word_bytes) < 0 || g_word_bytes <= 0) {
            PyErr_SetString(PyExc_TypeError,
                            "arm_model: LINE_BYTES/WORD_BYTES must be "
                            "positive ints");
            return NULL;
        }
    }
    if (!PyIter_Check(g_MsgIds)) {
        PyErr_SetString(PyExc_TypeError,
                        "arm_model: msg_ids must be an iterator");
        return NULL;
    }
    PyObject *mcls = (PyObject *)g_MsgType;
    off_m_kind = slot_off(mcls, "kind");
    off_m_src = slot_off(mcls, "src_node");
    off_m_dst = slot_off(mcls, "dst_node");
    off_m_addr = slot_off(mcls, "addr");
    off_m_value = slot_off(mcls, "value");
    off_m_payload = slot_off(mcls, "payload");
    off_m_reply_to = slot_off(mcls, "reply_to");
    off_m_requester = slot_off(mcls, "requester");
    off_m_dst_cpu = slot_off(mcls, "dst_cpu");
    off_m_retransmit = slot_off(mcls, "is_retransmit");
    off_m_size = slot_off(mcls, "size_bytes");
    off_m_id = slot_off(mcls, "msg_id");
    off_h_routes = slot_off((PyObject *)g_HubType, "_routes");
    off_h_controllers = slot_off((PyObject *)g_HubType, "controllers");
    off_h_net = slot_off((PyObject *)g_HubType, "net");
    off_h_egress = slot_off((PyObject *)g_HubType, "_egress");
    off_h_t_update = slot_off((PyObject *)g_HubType, "_t_egress_update");
    off_h_t_ctrl = slot_off((PyObject *)g_HubType, "_t_egress_ctrl");
    off_h_t_line = slot_off((PyObject *)g_HubType, "_t_egress_line");
    off_c_l1 = slot_off((PyObject *)g_CtrlType, "l1");
    off_c_l2 = slot_off((PyObject *)g_CtrlType, "l2");
    off_c_resv = slot_off((PyObject *)g_CtrlType, "_reservation");
    off_c_meta = slot_off((PyObject *)g_CtrlType, "_meta");
    off_c_inflight = slot_off((PyObject *)g_CtrlType, "_inflight");
    off_c_hub = slot_off((PyObject *)g_CtrlType, "hub");
    off_c_sim = slot_off((PyObject *)g_CtrlType, "sim");
    off_c_node = slot_off((PyObject *)g_CtrlType, "node");
    off_c_cpu = slot_off((PyObject *)g_CtrlType, "cpu_id");
    off_c_t_l1 = slot_off((PyObject *)g_CtrlType, "_t_l1");
    off_c_t_l2 = slot_off((PyObject *)g_CtrlType, "_t_l2");
    off_sc_sets = slot_off((PyObject *)g_CacheType, "_sets");
    off_sc_nsets = slot_off((PyObject *)g_CacheType, "n_sets");
    off_sc_lb = slot_off((PyObject *)g_CacheType, "line_bytes");
    off_sc_wu = slot_off((PyObject *)g_CacheType, "word_updates");
    off_sc_stamp = slot_off((PyObject *)g_CacheType, "_stamp");
    off_sc_hits = slot_off((PyObject *)g_CacheType, "hits");
    off_sc_misses = slot_off((PyObject *)g_CacheType, "misses");
    off_sc_inval = slot_off((PyObject *)g_CacheType, "invalidations");
    off_cl_state = slot_off((PyObject *)g_LineType, "state");
    off_cl_words = slot_off((PyObject *)g_LineType, "words");
    off_cl_lastuse = slot_off((PyObject *)g_LineType, "last_use");
    off_lm_version = slot_off((PyObject *)g_LineMetaType, "version");
    off_lm_gate = slot_off((PyObject *)g_LineMetaType, "gate");
    off_r_acquire = slot_off((PyObject *)g_ResourceType, "_acquire");
    off_r_busy_cycles = slot_off((PyObject *)g_ResourceType,
                                 "busy_cycles");
    off_he_dram = slot_off((PyObject *)g_HomeType, "dram");
    off_he_backing = slot_off((PyObject *)g_HomeType, "backing");
    off_he_dir = slot_off((PyObject *)g_HomeType, "directory");
    off_he_sim = slot_off((PyObject *)g_HomeType, "sim");
    off_he_hub = slot_off((PyObject *)g_HomeType, "hub");
    off_he_node = slot_off((PyObject *)g_HomeType, "node");
    off_he_lb = slot_off((PyObject *)g_HomeType, "_line_bytes");
    off_he_gets = slot_off((PyObject *)g_HomeType, "get_s_served");
    off_he_tdir = slot_off((PyObject *)g_HomeType, "_t_dir");
    off_he_name_rf = slot_off((PyObject *)g_HomeType, "_name_readfill");
    off_de_line = slot_off((PyObject *)g_DirEntType, "line_addr");
    off_de_state = slot_off((PyObject *)g_DirEntType, "state");
    off_de_mask = slot_off((PyObject *)g_DirEntType, "sharer_mask");
    off_de_owner = slot_off((PyObject *)g_DirEntType, "owner");
    off_de_busy = slot_off((PyObject *)g_DirEntType, "busy");
    off_de_version = slot_off((PyObject *)g_DirEntType, "version");
    off_dr_chan = slot_off((PyObject *)g_DramType, "_channel");
    off_dr_lineacc = slot_off((PyObject *)g_DramType, "line_accesses");
    off_dr_t_occ = slot_off((PyObject *)g_DramType, "_t_line_occ");
    off_dr_t_res = slot_off((PyObject *)g_DramType, "_t_line_res");
    off_dr_resid = slot_off((PyObject *)g_DramType, "_line_residual");
    const Py_ssize_t offs[] = {
        off_m_kind, off_m_src, off_m_dst, off_m_addr, off_m_value,
        off_m_payload, off_m_reply_to, off_m_requester, off_m_dst_cpu,
        off_m_retransmit, off_m_size, off_m_id, off_h_routes,
        off_h_controllers, off_h_net, off_h_egress, off_h_t_update,
        off_h_t_ctrl, off_h_t_line, off_c_l1, off_c_l2, off_c_resv,
        off_c_meta, off_c_inflight, off_c_hub, off_c_sim, off_c_node,
        off_c_cpu, off_c_t_l1, off_c_t_l2, off_sc_sets,
        off_sc_nsets, off_sc_lb, off_sc_wu, off_sc_stamp, off_sc_hits,
        off_sc_misses, off_sc_inval, off_cl_state, off_cl_words,
        off_cl_lastuse, off_lm_version, off_lm_gate,
        off_r_busy_cycles, off_r_acquire,
        off_he_dram, off_he_backing, off_he_dir, off_he_sim, off_he_hub,
        off_he_node, off_he_lb, off_he_gets, off_he_tdir,
        off_he_name_rf, off_de_line, off_de_state, off_de_mask,
        off_de_owner, off_de_busy, off_de_version, off_dr_chan,
        off_dr_lineacc, off_dr_t_occ, off_dr_t_res, off_dr_resid,
    };
    int ok = g_fast;
    for (size_t i = 0; i < sizeof(offs) / sizeof(offs[0]); i++)
        if (offs[i] < 0)
            ok = 0;
    g_model_fast = ok;
    return PyBool_FromLong(g_model_fast);
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef accel_functions[] = {
    {"arm_model", (PyCFunction)mod_arm_model, METH_O,
     "Bind the model layer's types and resolve their slot offsets; "
     "returns whether the compiled model paths are armed."},
    {"make_sender", (PyCFunction)mod_make_sender, METH_O,
     "Compiled Network.send bound to one network instance."},
    {"make_deliver", (PyCFunction)mod_make_deliver, METH_O,
     "Compiled Network._deliver bound to one network instance."},
    {"build_wave", (PyCFunction)mod_build_wave, METH_FASTCALL,
     "Bulk-construct a wave's Message list from (cpu, node) pairs."},
    {"egress_send", (PyCFunction)mod_egress_send, METH_FASTCALL,
     "Compiled Hub.egress_send coroutine (acquire/occupy/release/send)."},
    {"ctrl_load", (PyCFunction)mod_ctrl_load, METH_FASTCALL,
     "Compiled CacheController.load coroutine (L1/L2 hit levels in C)."},
    {"ctrl_do_invalidate", (PyCFunction)mod_ctrl_do_invalidate,
     METH_FASTCALL,
     "Compiled CacheController._do_invalidate coroutine (inv + ack)."},
    {"serve_get_s", (PyCFunction)mod_serve_get_s, METH_FASTCALL,
     "Compiled HomeEngine._serve_get_s coroutine (clean-read path)."},
    {"finish_clean_read", (PyCFunction)mod_finish_clean_read,
     METH_FASTCALL,
     "Compiled HomeEngine._finish_clean_read coroutine (DRAM + reply)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef accel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim.backends._accel_core",
    .m_doc = "Compiled accel event core (see repro.sim.backends).",
    .m_size = -1,
    .m_methods = accel_functions,
};

static int
intern_all(void)
{
#define INTERN(var, text)                          \
    do {                                           \
        var = PyUnicode_InternFromString(text);    \
        if (var == NULL)                           \
            return -1;                             \
    } while (0)
    INTERN(s_done, "done");
    INTERN(s_gen, "gen");
    INTERN(s_stack, "stack");
    INTERN(s_rn, "_rn");
    INTERN(s_finish, "_finish");
    INTERN(s_fail, "_fail");
    INTERN(s_arm, "_arm");
    INTERN(s_throw, "throw");
    INTERN(s_name, "name");
    INTERN(s_result, "result");
    INTERN(s_delay, "delay");
    INTERN(s_value, "value");
    INTERN(s_append, "append");
    INTERN(s_popleft, "popleft");
    INTERN(s_dunder_name, "__name__");
    INTERN(s_sim, "sim");
    INTERN(s_send, "send");
    INTERN(s_stats, "stats");
    INTERN(s_config, "config");
    INTERN(s_handlers, "_handlers");
    INTERN(s_send_hooks, "_send_hooks");
    INTERN(s_delay_injector, "delay_injector");
    INTERN(s_reorder_injector, "reorder_injector");
    INTERN(s_inj_seq, "_inj_seq");
    INTERN(s_route_cache, "_route_cache");
    INTERN(s_deliver, "_deliver");
    INTERN(s_counts, "counts");
    INTERN(s_retransmits, "retransmits");
    INTERN(s_router_contention, "model_router_contention");
    INTERN(s_link_contention, "model_link_contention");
    INTERN(s_is_reply, "is_reply");
    INTERN(s_packet_bytes, "packet_bytes");
    INTERN(s_try_fire, "try_fire");
    INTERN(s_pulse, "pulse");
    INTERN(s_line_changed, "_line_changed");
    INTERN(s_updates, "updates");
    INTERN(s_apply_word_update, "apply_word_update");
    INTERN(s_net, "net");
    INTERN(s_carries_line, "carries_line");
    INTERN(s_load_miss, "_load_miss");
    INTERN(s_fill_l1, "_fill_l1");
    INTERN(s_exclusive, "exclusive");
    INTERN(s_poisoned, "poisoned");
    INTERN(s_entry, "entry");
    INTERN(s_read_line, "read_line");
    INTERN(s_spawn, "spawn");
    INTERN(s_get_s_owned, "_get_s_owned");
#undef INTERN
    return 0;
}

/* fetch ``mod.name`` and require it to be a type */
static PyTypeObject *
get_type(PyObject *mod, const char *name)
{
    PyObject *obj = PyObject_GetAttrString(mod, name);
    if (obj == NULL)
        return NULL;
    if (!PyType_Check(obj)) {
        Py_DECREF(obj);
        PyErr_Format(PyExc_TypeError, "%s is not a type", name);
        return NULL;
    }
    return (PyTypeObject *)obj;
}

/* Resolve every slot offset the specialized paths rely on.  Returns 1
 * when all of them are plain T_OBJECT_EX member descriptors (enabling
 * ``g_fast``), 0 when any is missing — never an error: a refactored
 * Python class simply disables the fast paths. */
static int
resolve_offsets(void)
{
    PyObject *proc_cls = (PyObject *)g_ProcessType;
    off_p_gen = slot_off(proc_cls, "gen");
    off_p_stack = slot_off(proc_cls, "stack");
    off_p_name = slot_off(proc_cls, "name");
    off_p_sim = slot_off(proc_cls, "sim");
    off_p_done = slot_off(proc_cls, "done");
    off_p_result = slot_off(proc_cls, "result");
    off_p_error = slot_off(proc_cls, "error");
    off_p_waiters = slot_off(proc_cls, "_waiters");
    off_p_rn = slot_off(proc_cls, "_rn");
    off_j_target = slot_off((PyObject *)g_JoinType, "target");
    off_gw_gate = slot_off((PyObject *)g_GateWaitType, "gate");
    off_a_resource = slot_off((PyObject *)g_AcquireType, "resource");
    off_qg_queue = slot_off((PyObject *)g_QueueGetType, "queue");
    off_s_waiters = slot_off((PyObject *)g_SignalType, "_waiters");
    off_s_fired = slot_off((PyObject *)g_SignalType, "fired");
    off_s_value = slot_off((PyObject *)g_SignalType, "value");
    off_g_waiters = slot_off((PyObject *)g_GateType, "_waiters");
    off_g_open = slot_off((PyObject *)g_GateType, "open");
    off_g_value = slot_off((PyObject *)g_GateType, "value");
    off_r_busy = slot_off((PyObject *)g_ResourceType, "_busy");
    off_r_queue = slot_off((PyObject *)g_ResourceType, "_queue");
    off_r_grants = slot_off((PyObject *)g_ResourceType, "grants");
    off_r_acquired = slot_off((PyObject *)g_ResourceType, "_acquired_at");
    off_r_sim = slot_off((PyObject *)g_ResourceType, "_sim");
    off_fq_items = slot_off((PyObject *)g_FifoQueueType, "_items");
    off_fq_getters = slot_off((PyObject *)g_FifoQueueType, "_getters");
    const Py_ssize_t offs[] = {
        off_p_gen, off_p_stack, off_p_name, off_p_sim, off_p_done,
        off_p_result, off_p_error, off_p_waiters, off_p_rn,
        off_j_target, off_gw_gate, off_a_resource,
        off_qg_queue, off_s_waiters, off_s_fired, off_s_value,
        off_g_waiters, off_g_open, off_g_value, off_r_busy, off_r_queue,
        off_r_grants, off_r_acquired, off_r_sim, off_fq_items,
        off_fq_getters,
    };
    for (size_t i = 0; i < sizeof(offs) / sizeof(offs[0]); i++)
        if (offs[i] < 0)
            return 0;
    return 1;
}

PyMODINIT_FUNC
PyInit__accel_core(void)
{
    if (intern_all() < 0)
        return NULL;
    g_empty_str = PyUnicode_FromString("");
    if (g_empty_str == NULL)
        return NULL;
    PyObject *kernel = PyImport_ImportModule("repro.sim.kernel");
    if (kernel == NULL)
        return NULL;
    g_SimulationError = PyObject_GetAttrString(kernel, "SimulationError");
    Py_DECREF(kernel);
    if (g_SimulationError == NULL)
        return NULL;
    g_one = PyLong_FromLong(1);
    if (g_one == NULL)
        return NULL;
    PyObject *process = PyImport_ImportModule("repro.sim.process");
    if (process == NULL)
        return NULL;
    g_Process = PyObject_GetAttrString(process, "Process");
    if (g_Process == NULL) {
        Py_DECREF(process);
        return NULL;
    }
    g_ProcessType = get_type(process, "Process");
    g_JoinType = get_type(process, "JoinCmd");
    Py_DECREF(process);
    if (g_ProcessType == NULL || g_JoinType == NULL)
        return NULL;
    PyObject *primitives = PyImport_ImportModule("repro.sim.primitives");
    if (primitives == NULL)
        return NULL;
    g_TimeoutType = get_type(primitives, "Timeout");
    g_GateWaitType = get_type(primitives, "GateWait");
    g_AcquireType = get_type(primitives, "Acquire");
    g_QueueGetType = get_type(primitives, "QueueGet");
    g_SignalType = get_type(primitives, "Signal");
    g_GateType = get_type(primitives, "Gate");
    g_ResourceType = get_type(primitives, "Resource");
    g_FifoQueueType = get_type(primitives, "FifoQueue");
    Py_DECREF(primitives);
    if (g_TimeoutType == NULL || g_GateWaitType == NULL ||
            g_AcquireType == NULL || g_QueueGetType == NULL ||
            g_SignalType == NULL ||
            g_GateType == NULL || g_ResourceType == NULL ||
            g_FifoQueueType == NULL)
        return NULL;
    g_fast = resolve_offsets();

    if (PyType_Ready(&Ring_Type) < 0 || PyType_Ready(&Sim_Type) < 0 ||
            PyType_Ready(&Coro_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&accel_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "AccelSimulator",
                              (PyObject *)&Sim_Type) < 0 ||
            PyModule_AddObjectRef(mod, "ModelCoro",
                                  (PyObject *)&Coro_Type) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
