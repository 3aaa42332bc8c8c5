module Stats = Stc_numerics.Stats

type strategy =
  | Given of int array
  | By_failure_count
  | By_correlation
  | By_cluster of float
  | By_mutual_information

let failure_counts data =
  let k = Device_data.n_specs data in
  let counts = Array.make k 0 in
  let specs = Device_data.specs data in
  for i = 0 to Device_data.n_instances data - 1 do
    let row = Device_data.instance_row data i in
    for j = 0 to k - 1 do
      if not (Spec.passes specs.(j) row.(j)) then counts.(j) <- counts.(j) + 1
    done
  done;
  counts

(* |Pearson correlation| between normalised spec columns *)
let correlation_matrix data =
  let k = Device_data.n_specs data in
  let specs = Device_data.specs data in
  let columns =
    Array.init k (fun j ->
        Array.map (Spec.normalize specs.(j)) (Device_data.spec_column data j))
  in
  Array.init k (fun a ->
      Array.init k (fun b ->
          if a = b then 1.0
          else Float.abs (Stats.correlation columns.(a) columns.(b))))

(* per-spec Mi score (nats) between the normalised spec column and the
   overall pass/fail verdict; zeros on an empty population *)
let mutual_information ?bins data =
  let k = Device_data.n_specs data in
  let n = Device_data.n_instances data in
  if n = 0 then Array.make k 0.0
  else begin
    let specs = Device_data.specs data in
    let labels =
      Array.init n (fun i ->
          if Device_data.passes_all data ~instance:i then 1 else -1)
    in
    let columns =
      Array.init k (fun j ->
          Array.map (Spec.normalize specs.(j)) (Device_data.spec_column data j))
    in
    Stc_learn.Mi.scores ?bins ~labels columns
  end

let check_permutation k order =
  if Array.length order <> k then
    invalid_arg "Order.compute: order length mismatch";
  let seen = Array.make k false in
  Array.iter
    (fun j ->
      if j < 0 || j >= k || seen.(j) then
        invalid_arg "Order.compute: not a permutation";
      seen.(j) <- true)
    order

(* stable sort of indices by key *)
let sorted_indices k key =
  let idx = Array.init k (fun i -> i) in
  Array.stable_sort (fun a b -> compare (key a) (key b)) idx;
  idx

let clusters data ~threshold =
  let k = Device_data.n_specs data in
  let corr = correlation_matrix data in
  (* union-find over the correlation graph *)
  let parent = Array.init k (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      if corr.(a).(b) >= threshold then union a b
    done
  done;
  let table = Hashtbl.create 8 in
  for i = 0 to k - 1 do
    let root = find i in
    Hashtbl.replace table root (i :: Option.value ~default:[] (Hashtbl.find_opt table root))
  done;
  Hashtbl.fold (fun _ members acc -> List.sort compare members :: acc) table []
  |> List.sort (fun a b -> compare (List.length b) (List.length a))

let compute strategy data =
  let k = Device_data.n_specs data in
  match strategy with
  | Given order ->
    check_permutation k order;
    Array.copy order
  | By_failure_count ->
    let counts = failure_counts data in
    sorted_indices k (fun j -> counts.(j))
  | By_correlation ->
    let corr = correlation_matrix data in
    let best_partner j =
      let m = ref 0.0 in
      for b = 0 to k - 1 do
        if b <> j && corr.(j).(b) > !m then m := corr.(j).(b)
      done;
      !m
    in
    (* most-correlated first: descending, so negate *)
    sorted_indices k (fun j -> -.best_partner j)
  | By_mutual_information ->
    (* least informative about the overall verdict first: those specs
       are the cheapest to make implicit *)
    let scores = mutual_information data in
    sorted_indices k (fun j -> scores.(j))
  | By_cluster threshold ->
    let failures = failure_counts data in
    let groups = clusters data ~threshold in
    (* within each cluster, keep the most-rejecting spec as the
       representative (examined last) *)
    let early = ref [] and late = ref [] in
    List.iter
      (fun members ->
        match members with
        | [] -> ()
        | first :: _ ->
          let representative =
            List.fold_left
              (fun best j -> if failures.(j) > failures.(best) then j else best)
              first members
          in
          let rest =
            List.filter (fun j -> j <> representative) members
            |> List.sort (fun a b -> compare failures.(a) failures.(b))
          in
          early := !early @ rest;
          late := !late @ [ representative ])
      groups;
    Array.of_list (!early @ !late)
