/* Hostile fixture for `oldenc -analyze`: every function here presses on one
 * leg of the effect analysis, and the goldens pin how.
 *
 *   spin    — while(1): never leaves the loop, may-not-return.
 *   rewire  — a migrating list walk that also stores through a second,
 *             possibly-aliased pointer: demoted by the differential
 *             (aliased-write:node.next via m), uncertifiable, but it returns.
 *   grow    — allocates in a loop whose variable never advances through its
 *             own fields: no progress argument, may-not-return, allocates.
 *   creep   — counts up from a start the analysis cannot see and *does*
 *             return: the guard against reading "no number" as "may not
 *             return" again.
 *   stall   — a pointer chase that advances only on some paths: may-not-return.
 *   chase   — counts up toward a limit its own loop keeps moving: the
 *             counter never catches it, may-not-return.
 */
struct node {
  int v;
  struct node *next __affinity(95);
};

void spin(struct node *n) {
  while (1) {
    n->v = 0;
  }
}

void rewire(struct node *l, struct node *m) {
  while (l) {
    m->next = l->next;
    l = l->next;
  }
}

struct node *grow(struct node *l) {
  struct node *n;
  while (l) {
    n = alloc();
    n->next = l;
    l = n;
  }
  return l;
}

int creep(int n) {
  int i;
  i = 0 - 1000000;
  while (i < 10) {
    i = i + 1;
  }
  return i;
}

void stall(struct node *p, int c) {
  while (p) {
    if (c) {
      p = p->next;
    }
    c = 0;
  }
}

int chase(int n) {
  int i;
  i = 0;
  while (i < n) {
    i = i + 1;
    n = n + 1;
  }
  return i;
}
