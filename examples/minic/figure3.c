/* Paper Figure 3: a list walk whose update matrix has a non-trivial
 * off-diagonal row. `oldenc figure3.c` prints the matrix; u's store is
 * never read, and the figure keeps it only for its matrix row. */
struct node {
  struct node *left __affinity(90);
  struct node *right __affinity(70);
};
void f(struct node *s, struct node *t, struct node *u) {
  while (s) {
    s = s->left;
    t = t->right->left;
    u = s->right;
  }
}
