(* Process-wide cache traffic: stcbench reads the hit ratio from these. *)
let m_hits = Stc_obs.Registry.counter "stc_svm_cache_hits_total"
let m_misses = Stc_obs.Registry.counter "stc_svm_cache_misses_total"

type t = {
  compute : int -> float array;
  table : (int, float array) Hashtbl.t;
  order : int Queue.t;
  capacity : int;
}

let create ~row_bytes ?(budget_bytes = 64_000_000) compute =
  let capacity = Stdlib.max 16 (budget_bytes / Stdlib.max 1 row_bytes) in
  { compute; table = Hashtbl.create 256; order = Queue.create (); capacity }

let get t i =
  match Hashtbl.find_opt t.table i with
  | Some row ->
    Stc_obs.Registry.Counter.incr m_hits;
    row
  | None ->
    Stc_obs.Registry.Counter.incr m_misses;
    let row = t.compute i in
    if Hashtbl.length t.table >= t.capacity then begin
      match Queue.take_opt t.order with
      | Some victim -> Hashtbl.remove t.table victim
      | None -> ()
    end;
    Hashtbl.add t.table i row;
    Queue.add i t.order;
    row
