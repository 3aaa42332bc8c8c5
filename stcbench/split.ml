(* Wall-clock time per layer from a trace dump.

   Within one domain spans nest, so at any instant the innermost open
   span is the one at work: summed over time, that is each span's self
   time (its duration minus the part its children cover). Pool workers
   run on other domains at the same instants, so each instant is split
   evenly among the domains busy at it; the layer totals then add up to
   the wall time the spans cover. A span's layer is its name up to the
   first '.'. *)

type span = Stc_obs.Trace.span

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let end_s (s : span) = s.t_s +. s.dur_s

(* Per-layer attributed seconds, and their total. *)
let layer_wall (spans : (span * string) list) =
  (* starts sort before ends at equal times, so that a span of zero
     duration opens before it closes *)
  let events =
    List.concat_map
      (fun ((s : span), name) -> [ (s.t_s, 0, s, name); (end_s s, 1, s, name) ])
      spans
    |> List.sort (fun (t1, k1, _, _) (t2, k2, _, _) -> compare (t1, k1) (t2, k2))
  in
  let totals = Hashtbl.create 16 in
  let open_ : (int, (int * string) list) Hashtbl.t = Hashtbl.create 4 in
  let add l dt = Hashtbl.replace totals l (dt +. Option.value (Hashtbl.find_opt totals l) ~default:0.0) in
  let last = ref neg_infinity in
  List.iter
    (fun (t, kind, (s : span), name) ->
      let busy = Hashtbl.fold (fun _ st acc -> if st = [] then acc else st :: acc) open_ [] in
      let k = List.length busy in
      if k > 0 && t > !last then
        List.iter (fun st -> add (snd (List.hd st)) ((t -. !last) /. float_of_int k)) busy;
      last := t;
      let st = Option.value (Hashtbl.find_opt open_ s.domain) ~default:[] in
      Hashtbl.replace open_ s.domain
        (if kind = 0 then (s.id, layer name) :: st
         else List.filter (fun (id, _) -> id <> s.id) st))
    events;
  (totals, Hashtbl.fold (fun _ v acc -> acc +. v) totals 0.0)
