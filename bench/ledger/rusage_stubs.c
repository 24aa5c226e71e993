/* Child processes with their own resource usage, and a monotonic clock.

   OCaml's Unix library has no rusage, so children are reaped with
   wait4, which returns a child's user and system CPU time and its peak
   resident set size. Linux counts in that peak the memory of the
   process that forked the child, as it stood before exec. So children
   are not forked from the ledger, whose heap holds designs, layouts
   and traced runs, but from a spawner process forked once at start-up
   while the ledger is still small. The spawner serves one request at a
   time over a pipe: a log path and an argv in, a usage record out. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static long now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec;
}

value ledger_monotonic_ns(value unit)
{
  (void)unit;
  return Val_long(now_ns());
}

struct reply {
  int32_t exit_code; /* -1 when killed by a signal */
  int32_t signal;
  int64_t wall_ns;
  int64_t user_us;
  int64_t sys_us;
  int64_t maxrss_kb;
};

static int read_full(int fd, void *buf, size_t n)
{
  size_t done = 0;
  while (done < n) {
    ssize_t r = read(fd, (char *)buf + done, n - done);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return -1;
    done += (size_t)r;
  }
  return 0;
}

static int write_full(int fd, const void *buf, size_t n)
{
  size_t done = 0;
  while (done < n) {
    ssize_t r = write(fd, (const char *)buf + done, n - done);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return -1;
    done += (size_t)r;
  }
  return 0;
}

/* A request is a length and then NUL-terminated strings: the log path,
   then argv. Runs in the spawner process only, and never returns. */
static void serve(int in, int out)
{
  for (;;) {
    uint32_t len;
    if (read_full(in, &len, sizeof len) < 0) _exit(0);
    char *buf = malloc(len);
    if (buf == NULL || read_full(in, buf, len) < 0) _exit(1);
    size_t n = 0;
    for (uint32_t i = 0; i < len; i++) n += buf[i] == '\0';
    /* argv[0] is the log path, argv[1..n-1] the command, argv[n] NULL. */
    char **argv = calloc(n + 1, sizeof *argv);
    if (argv == NULL || n < 2) _exit(1);
    char *p = buf;
    for (size_t i = 0; i < n; i++) {
      argv[i] = p;
      p += strlen(p) + 1;
    }
    const char *log = argv[0];
    struct reply r;
    memset(&r, 0, sizeof r);
    long t0 = now_ns();
    pid_t pid = fork();
    if (pid == 0) {
      int fd = open(log, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) _exit(126);
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
      close(in);
      close(out);
      execv(argv[1], argv + 1);
      _exit(127);
    }
    int status = 0;
    struct rusage ru;
    memset(&ru, 0, sizeof ru);
    pid_t w = -1;
    if (pid > 0) {
      do {
        w = wait4(pid, &status, 0, &ru);
      } while (w < 0 && errno == EINTR);
    }
    r.wall_ns = now_ns() - t0;
    if (w < 0) {
      r.exit_code = -1;
    } else {
      r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      r.signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      r.user_us = (int64_t)ru.ru_utime.tv_sec * 1000000 + ru.ru_utime.tv_usec;
      r.sys_us = (int64_t)ru.ru_stime.tv_sec * 1000000 + ru.ru_stime.tv_usec;
      r.maxrss_kb = ru.ru_maxrss;
    }
    free(argv);
    free(buf);
    if (write_full(out, &r, sizeof r) < 0) _exit(1);
  }
}

static int req_fd = -1, rep_fd = -1;
static pid_t spawner = -1;

value ledger_spawner_start(value unit)
{
  int req[2], rep[2];
  (void)unit;
  if (spawner > 0) return Val_unit;
  if (pipe(req) < 0 || pipe(rep) < 0) caml_failwith("pipe");
  pid_t pid = fork();
  if (pid < 0) caml_failwith("fork");
  if (pid == 0) {
    close(req[1]);
    close(rep[0]);
    serve(req[0], rep[1]);
  }
  close(req[0]);
  close(rep[1]);
  fcntl(req[1], F_SETFD, FD_CLOEXEC);
  fcntl(rep[0], F_SETFD, FD_CLOEXEC);
  req_fd = req[1];
  rep_fd = rep[0];
  spawner = pid;
  return Val_unit;
}

/* Close the request pipe, so the spawner exits, and reap it. */
value ledger_spawner_stop(value unit)
{
  (void)unit;
  if (spawner <= 0) return Val_unit;
  close(req_fd);
  close(rep_fd);
  caml_enter_blocking_section();
  while (waitpid(spawner, NULL, 0) < 0 && errno == EINTR) {
  }
  caml_leave_blocking_section();
  spawner = -1;
  return Val_unit;
}

/* Run [argv] to completion with stdout and stderr in [log]; returns
   (exit code, signal, wall s, user+sys s, max rss KiB). */
value ledger_spawn(value vlog, value vargv)
{
  CAMLparam2(vlog, vargv);
  CAMLlocal1(res);
  if (spawner <= 0) caml_failwith("spawner not started");
  mlsize_t argc = Wosize_val(vargv);
  size_t len = caml_string_length(vlog) + 1;
  for (mlsize_t i = 0; i < argc; i++) len += caml_string_length(Field(vargv, i)) + 1;
  char *buf = malloc(sizeof(uint32_t) + len);
  if (buf == NULL) caml_failwith("out of memory");
  uint32_t n32 = (uint32_t)len;
  memcpy(buf, &n32, sizeof n32);
  char *p = buf + sizeof n32;
  memcpy(p, String_val(vlog), caml_string_length(vlog) + 1);
  p += caml_string_length(vlog) + 1;
  for (mlsize_t i = 0; i < argc; i++) {
    size_t l = caml_string_length(Field(vargv, i)) + 1;
    memcpy(p, String_val(Field(vargv, i)), l);
    p += l;
  }
  struct reply r;
  int err;
  caml_enter_blocking_section();
  err = write_full(req_fd, buf, sizeof n32 + len) < 0 || read_full(rep_fd, &r, sizeof r) < 0;
  caml_leave_blocking_section();
  free(buf);
  if (err) caml_failwith("spawner died");
  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_int(r.exit_code));
  Store_field(res, 1, Val_int(r.signal));
  Store_field(res, 2, caml_copy_double((double)r.wall_ns * 1e-9));
  Store_field(res, 3, caml_copy_double((double)(r.user_us + r.sys_us) * 1e-6));
  Store_field(res, 4, Val_long(r.maxrss_kb));
  CAMLreturn(res);
}
