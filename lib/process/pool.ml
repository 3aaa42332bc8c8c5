module Obs = Stc_obs.Registry
module Clock = Stc_obs.Clock

(* Process-wide pool metrics. *)
let m_jobs = Obs.counter "stc_pool_jobs_total"
let m_tasks = Obs.counter "stc_pool_tasks_total"
let h_queue_wait = Obs.histogram "stc_pool_queue_wait_s"
let h_job = Obs.histogram "stc_pool_job_s"

type job = {
  f : int -> unit;
  n : int;
  next : int Atomic.t;
  mutable pending : int;  (* helpers still executing this job; under mutex *)
  submitted : float;  (* monotonic Clock.now of submission, for the queue-wait metric *)
  unclaimed : bool Atomic.t;  (* true until the first task claim *)
}

type t = {
  total : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable error : exn option;  (* first exception raised by any task *)
  mutable stop : bool;
  mutable helpers : unit Domain.t list;
}

(* Work stealing by atomic index claim: any domain grabs the next
   undone task, so load imbalance between tasks self-corrects. *)
let exec t job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      if
        Atomic.get job.unclaimed
        && Atomic.compare_and_set job.unclaimed true false
      then Obs.Histogram.observe h_queue_wait (Clock.now () -. job.submitted);
      (try job.f i
       with e ->
         Mutex.lock t.mutex;
         if t.error = None then t.error <- Some e;
         Mutex.unlock t.mutex;
         (* drain the remaining tasks so everyone returns promptly *)
         Atomic.set job.next job.n);
      claim ()
    end
  in
  claim ()

(* A job is cleared only once every helper has counted down [pending],
   so each helper sees every generation exactly once. *)
let helper_loop t =
  let seen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !seen do
      Condition.wait t.start t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      live := false
    end
    else begin
      seen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      exec t job;
      Mutex.lock t.mutex;
      job.pending <- job.pending - 1;
      if job.pending = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      total = domains;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      error = None;
      stop = false;
      helpers = [];
    }
  in
  t.helpers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> helper_loop t));
  t

let domains t = t.total

let run_participating t ~n f =
  Mutex.lock t.mutex;
  if t.job <> None then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: a job is already in flight"
  end;
  t.error <- None;
  t.generation <- t.generation + 1;
  let job =
    {
      f;
      n;
      next = Atomic.make 0;
      pending = List.length t.helpers;
      submitted = Clock.now ();
      unclaimed = Atomic.make true;
    }
  in
  t.job <- Some job;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  (* the submitting domain works too: domains=1 means no helpers *)
  exec t job;
  Mutex.lock t.mutex;
  while job.pending > 0 do
    Condition.wait t.finished t.mutex
  done;
  t.job <- None;
  let error = t.error in
  t.error <- None;
  Mutex.unlock t.mutex;
  match error with None -> () | Some e -> raise e

let run t ~n f =
  if n < 0 then invalid_arg "Pool.run: n must be >= 0";
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  if n > 0 then begin
    Obs.Counter.incr m_jobs;
    Obs.Counter.add m_tasks n;
    Obs.Histogram.time h_job (fun () -> run_participating t ~n f)
  end

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.start;
    let helpers = t.helpers in
    t.helpers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join helpers
  end
  else Mutex.unlock t.mutex

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
