/* The tick loop of `ccprobe.netsim.run_episode`.
 *
 * `tl_step` advances one episode tick by tick and returns to the Python
 * driver only for what needs Python: an ACK batch (`on_ack`), a loss
 * reaction (`on_loss`), an interval boundary, the end of the episode or an
 * error. Every tick runs the same five steps as the simulator has always had:
 * ACK arrivals, loss reactions, cwnd/pacing-gated injection, delivery and the
 * interval boundary. A return in the middle of a tick records the step to
 * resume at in `stage`.
 *
 * The arithmetic is Python's, operation for operation, in IEEE doubles; the
 * build turns off FMA contraction and never uses fast-math. `py_floordiv`
 * and `py_round` are CPython's float `//` and `round()`. Every buffer write
 * is bounds-checked; buffers grow on demand, and a failed allocation ends
 * the episode with TL_NOMEM. The RTT histogram grows with the largest RTT
 * seen, never with the episode length.
 *
 * The declarations between the cdef markers are also handed to cffi.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* cdef-begin */
#define TL_DONE 0
#define TL_ACK 1
#define TL_TRIPLE_DUP 2
#define TL_TIMEOUT 3
#define TL_INTERVAL 4
#define TL_NOMEM -1
#define TL_BAD_CWND -2
#define TL_BAD_PACING -3
#define TL_BAD_CAPACITY -4

typedef struct {
    int64_t send_tick, count;
} tl_run;

typedef struct {
    int64_t send_tick, count, ack_tick;
} tl_ack;

typedef struct {
    /* fixed for the episode */
    int64_t pkt, ack_delay, interval_ticks, n_ticks, queue_cap, burst_cap;
    double tick_ms, owd_ms, base_rtt_ms;
    int call_on_ack, call_on_loss;
    /* set by the driver at each interval boundary */
    double cap_bytes_per_tick, scale;
    /* progress: the next tick and the step of it to resume at */
    int64_t tick;
    int stage;
    /* totals, and this interval's counts */
    int64_t sent, delivered, dropped, acked, resolved_drops, qlen;
    int64_t iv_sent, iv_delivered, iv_dropped;
    /* RTT estimates (ms); srtt is undefined until has_srtt */
    int has_srtt;
    double srtt, min_rtt, min_owd;
    /* loss-event bookkeeping, pacing and link credit */
    int drop_pending;
    int64_t acks_after_drop, reaction_blocked_until, last_ack_tick;
    double byte_credit, pacing_credit;
    /* the last ACK batch, as AckInfo reads it */
    double ack_now_ms, ack_rtt_ms, ack_owd_ms, ack_min_rtt_ms, ack_min_owd_ms;
    int64_t ack_packets;
    /* FIFO of queued runs, FIFO of delivered runs awaiting their ACK, and
     * the histogram of ACK RTTs in ticks; owned by C, freed by tl_free.
     * Every packet injected in one tick shares its send tick and travels
     * in one run, so a tick's work is per run, never per packet. */
    tl_run *queue;
    int64_t q_head, q_len, q_cap;
    tl_ack *acks;
    int64_t a_head, a_len, a_cap;
    int64_t *hist;
    int64_t hist_len;
} tl_state;

int tl_step(tl_state *s, double cwnd, int paced, double pacing_bps);
void tl_free(tl_state *s);
/* cdef-end */

/* CPython's float floor division (floatobject.c, _float_div_mod). */
static double py_floordiv(double vx, double wx)
{
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    double floordiv;
    if (mod) {
        if ((wx < 0) != (mod < 0))
            div -= 1.0;
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
    }
    else {
        floordiv = copysign(0.0, vx / wx);
    }
    return floordiv;
}

/* CPython's round(x) for a float: to nearest, ties to even. */
static double py_round(double x)
{
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r;
}

/* Makes room for `need` elements in a ring of `elem`-byte elements,
 * unwrapping it so it starts at index 0. Returns 0 on success. */
static int ring_reserve(void **buf, int64_t *head, int64_t len, int64_t *cap,
                        size_t elem, int64_t need)
{
    if (need <= *cap)
        return 0;
    int64_t ncap = *cap ? 2 * *cap : 64;
    if (ncap < need)
        ncap = need;
    char *nbuf = malloc((size_t)ncap * elem);
    if (!nbuf)
        return -1;
    if (len) {
        int64_t first = *cap - *head < len ? *cap - *head : len;
        memcpy(nbuf, (char *)*buf + (size_t)*head * elem, (size_t)first * elem);
        memcpy(nbuf + (size_t)first * elem, *buf, (size_t)(len - first) * elem);
    }
    free(*buf);
    *buf = nbuf;
    *head = 0;
    *cap = ncap;
    return 0;
}

static int hist_reserve(tl_state *s, int64_t need)
{
    if (need <= s->hist_len)
        return 0;
    int64_t nlen = 2 * s->hist_len > need ? 2 * s->hist_len : need;
    int64_t *nh = realloc(s->hist, (size_t)nlen * sizeof *nh);
    if (!nh)
        return -1;
    memset(nh + s->hist_len, 0, (size_t)(nlen - s->hist_len) * sizeof *nh);
    s->hist = nh;
    s->hist_len = nlen;
    return 0;
}

static int64_t ring_slot(int64_t head, int64_t i, int64_t cap)
{
    int64_t j = head + i;
    return j < cap ? j : j - cap;
}

/* Python's `srtt or base_rtt_ms`. */
static double srtt_or_base(const tl_state *s)
{
    return s->has_srtt && s->srtt != 0.0 ? s->srtt : s->base_rtt_ms;
}

int tl_step(tl_state *s, double cwnd, int paced, double pacing_bps)
{
    while (s->tick < s->n_ticks) {
        int64_t tick = s->tick;
        switch (s->stage) {
        case 0: {
            /* 1. ACK arrivals */
            if (tick % s->interval_ticks == 0)
                s->iv_sent = s->iv_delivered = s->iv_dropped = 0;
            if (s->a_len && s->acks[s->a_head].ack_tick == tick) {
                /* runs leave in send order: the first has the largest RTT,
                 * the last the smallest */
                if (hist_reserve(s, tick - s->acks[s->a_head].send_tick + 1))
                    return TL_NOMEM;
                int64_t n = 0, rtt_ticks = 0, r = 0;
                while (s->a_len && s->acks[s->a_head].ack_tick == tick) {
                    const tl_ack *a = &s->acks[s->a_head];
                    r = tick - a->send_tick;
                    n += a->count;
                    rtt_ticks += a->count * r;
                    s->hist[r] += a->count;
                    s->a_head = ring_slot(s->a_head, 1, s->a_cap);
                    s->a_len--;
                }
                double rtt = r * s->tick_ms;
                if (rtt < s->min_rtt)
                    s->min_rtt = rtt;
                double mean_rtt = rtt_ticks * s->tick_ms / n;
                double owd = mean_rtt - s->owd_ms;   /* queue wait + forward prop */
                if (owd < s->min_owd)
                    s->min_owd = owd;
                if (s->has_srtt)
                    s->srtt = s->srtt + (mean_rtt - s->srtt) / 8.0;
                else
                    s->srtt = mean_rtt;
                s->has_srtt = 1;
                s->acked += n;
                s->last_ack_tick = tick;
                if (s->drop_pending)
                    s->acks_after_drop += n;
                s->stage = 1;
                if (s->call_on_ack) {
                    s->ack_now_ms = tick * s->tick_ms;
                    s->ack_rtt_ms = mean_rtt;
                    s->ack_owd_ms = owd;
                    s->ack_min_rtt_ms = s->min_rtt * s->scale;
                    s->ack_min_owd_ms = s->min_owd * s->scale;
                    s->ack_packets = n;
                    return TL_ACK;
                }
            }
        }
        /* fall through */
        case 1: {
            /* 2. loss reactions */
            int event = TL_DONE;
            if (s->drop_pending && s->acks_after_drop >= 3
                    && tick >= s->reaction_blocked_until) {
                event = TL_TRIPLE_DUP;
                int64_t srtt_ticks = (int64_t)py_round(srtt_or_base(s) / s->tick_ms);
                s->reaction_blocked_until = tick + (srtt_ticks > 1 ? srtt_ticks : 1);
            }
            else {
                double rto_ms = 2.0 * srtt_or_base(s);
                if (rto_ms < 200.0)
                    rto_ms = 200.0;
                if (s->sent - s->acked - s->resolved_drops > 0
                        && (tick - s->last_ack_tick) * s->tick_ms > rto_ms) {
                    event = TL_TIMEOUT;
                    s->last_ack_tick = tick;   /* restart the timer */
                    int64_t rto_ticks = (int64_t)py_round(rto_ms / s->tick_ms);
                    s->reaction_blocked_until = tick + (rto_ticks > 1 ? rto_ticks : 1);
                }
            }
            s->stage = 2;
            if (event != TL_DONE) {
                s->resolved_drops = s->dropped;
                s->drop_pending = 0;
                s->acks_after_drop = 0;
                if (s->call_on_loss)
                    return event;
            }
        }
        /* fall through */
        case 2: {
            /* 3. injection, gated by cwnd and by pacing when the controller
             * sets a rate; a single tick can never usefully inject more than
             * a full queue's worth, so the burst cap keeps runaway cwnd
             * values cheap. Python's int(cwnd) truncates; past +-2^62 only
             * the sign matters. */
            if (isnan(cwnd) || isinf(cwnd))
                return TL_BAD_CWND;
            int64_t c = cwnd >= 0x1p62 ? INT64_C(1) << 62
                : cwnd <= -0x1p62 ? -(INT64_C(1) << 62) : (int64_t)cwnd;
            int64_t k = (c > 1 ? c : 1) - (s->sent - s->acked - s->resolved_drops);
            if (k > s->burst_cap)
                k = s->burst_cap;
            if (paced) {
                double credit = s->pacing_credit + pacing_bps / 8.0 * s->tick_ms / 1000.0;
                double top = 10.0 * s->pkt;
                s->pacing_credit = top < credit ? top : credit;   /* min(credit, top) */
                double q = py_floordiv(s->pacing_credit, (double)s->pkt);
                if (isnan(q) || isinf(q))
                    return TL_BAD_PACING;
                if (q < (double)k)
                    k = q <= -0x1p62 ? -(INT64_C(1) << 62) : (int64_t)q;
                if (k > 0)
                    s->pacing_credit -= (double)k * s->pkt;
            }
            if (k > 0) {
                s->sent += k;
                s->iv_sent += k;
                int64_t room = s->queue_cap - s->qlen;
                int64_t enq = k < room ? k : room;
                if (enq) {
                    if (ring_reserve((void **)&s->queue, &s->q_head, s->q_len,
                                     &s->q_cap, sizeof(tl_run), s->q_len + 1))
                        return TL_NOMEM;
                    tl_run *run = &s->queue[ring_slot(s->q_head, s->q_len, s->q_cap)];
                    run->send_tick = tick;
                    run->count = enq;
                    s->q_len++;
                    s->qlen += enq;
                }
                if (enq < k) {
                    s->dropped += k - enq;
                    s->iv_dropped += k - enq;
                    if (!s->drop_pending) {
                        s->drop_pending = 1;
                        s->acks_after_drop = 0;
                    }
                }
            }

            /* 4. delivery */
            s->byte_credit += s->cap_bytes_per_tick;
            double n_opp = py_floordiv(s->byte_credit, (double)s->pkt);
            if (!(n_opp >= 0.0) || isinf(n_opp))
                return TL_BAD_CAPACITY;
            s->byte_credit -= n_opp * s->pkt;
            if (n_opp != 0.0 && s->qlen) {
                int64_t n_del = (double)s->qlen < n_opp ? s->qlen : (int64_t)n_opp;
                int64_t left = n_del;
                while (left) {
                    if (ring_reserve((void **)&s->acks, &s->a_head, s->a_len,
                                     &s->a_cap, sizeof(tl_ack), s->a_len + 1))
                        return TL_NOMEM;
                    tl_run *run = &s->queue[s->q_head];
                    tl_ack *a = &s->acks[ring_slot(s->a_head, s->a_len, s->a_cap)];
                    a->send_tick = run->send_tick;
                    a->ack_tick = tick + s->ack_delay;
                    if (run->count <= left) {
                        a->count = run->count;
                        left -= run->count;
                        s->q_head = ring_slot(s->q_head, 1, s->q_cap);
                        s->q_len--;
                    }
                    else {
                        a->count = left;
                        run->count -= left;
                        left = 0;
                    }
                    s->a_len++;
                }
                s->qlen -= n_del;
                s->delivered += n_del;
                s->iv_delivered += n_del;
            }

            /* 5. interval boundary */
            s->stage = 0;
            s->tick = tick + 1;
            if ((tick + 1) % s->interval_ticks == 0)
                return TL_INTERVAL;
            break;
        }
        }
    }
    return TL_DONE;
}

void tl_free(tl_state *s)
{
    free(s->queue);
    free(s->acks);
    free(s->hist);
    s->queue = NULL;
    s->acks = NULL;
    s->hist = NULL;
    s->q_cap = s->a_cap = s->hist_len = 0;
    s->q_len = s->a_len = 0;
}
