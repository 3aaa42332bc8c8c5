type node = string

type element =
  | Resistor of { name : string; p : node; n : node; r : float }
  | Capacitor of { name : string; p : node; n : node; c : float }
  | Inductor of { name : string; p : node; n : node; l : float }
  | Vsource of { name : string; p : node; n : node; wave : Wave.t; ac : float }
  | Isource of { name : string; p : node; n : node; wave : Wave.t; ac : float }
  | Mosfet of {
      name : string;
      d : node;
      g : node;
      s : node;
      model : Mosfet.params;
      w : float;
      l : float;
    }

type t = { elements : element list }

let of_elements elements = { elements }

let is_ground node = node = "0" || node = "gnd"

let element_nodes = function
  | Resistor { p; n; _ } | Capacitor { p; n; _ } | Inductor { p; n; _ }
  | Vsource { p; n; _ } | Isource { p; n; _ } ->
    [ p; n ]
  | Mosfet { d; g; s; _ } -> [ d; g; s ]

let element_name = function
  | Resistor { name; _ } | Capacitor { name; _ } | Inductor { name; _ }
  | Vsource { name; _ } | Isource { name; _ } | Mosfet { name; _ } -> name

let nodes t =
  t.elements
  |> List.concat_map element_nodes
  |> List.filter (fun n -> not (is_ground n))
  |> List.sort_uniq compare

let validate t =
  let names = List.map element_name t.elements in
  let dup =
    let sorted = List.sort compare names in
    let rec first_dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else first_dup rest
      | [ _ ] | [] -> None
    in
    first_dup sorted
  in
  match dup with
  | Some name -> Error (Printf.sprintf "duplicate element name %S" name)
  | None ->
    let bad =
      List.find_opt
        (fun e ->
          match e with
          | Resistor { r; _ } -> r <= 0.0
          | Capacitor { c; _ } -> c <= 0.0
          | Inductor { l; _ } -> l <= 0.0
          | Mosfet { w; l; _ } -> w <= 0.0 || l <= 0.0
          | Vsource _ | Isource _ -> false)
        t.elements
    in
    (match bad with
     | Some e ->
       Error (Printf.sprintf "element %S has a non-positive value" (element_name e))
     | None -> Ok ())

let r name p n r = Resistor { name; p; n; r }
let c name p n c = Capacitor { name; p; n; c }
let l name p n l = Inductor { name; p; n; l }
let vdc name p n v = Vsource { name; p; n; wave = Wave.Dc v; ac = 0.0 }
let vac name p n ~dc ~mag = Vsource { name; p; n; wave = Wave.Dc dc; ac = mag }
let vwave name p n wave = Vsource { name; p; n; wave; ac = 0.0 }

let nmos name ~d ~g ~s ?(model = Mosfet.default_nmos) ~w ~l () =
  Mosfet { name; d; g; s; model; w; l }

let pmos name ~d ~g ~s ?(model = Mosfet.default_pmos) ~w ~l () =
  Mosfet { name; d; g; s; model; w; l }
