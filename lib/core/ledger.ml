type t = { mutable order : string list (* newest first *); table : (string, Sim.Time.t) Hashtbl.t }

let create () = { order = []; table = Hashtbl.create 8 }

let add t label cost =
  match Hashtbl.find_opt t.table label with
  | Some prev -> Hashtbl.replace t.table label (prev + cost)
  | None ->
      Hashtbl.replace t.table label cost;
      t.order <- label :: t.order

let total t = Hashtbl.fold (fun _ c acc -> acc + c) t.table 0

let of_label t label = Option.value ~default:0 (Hashtbl.find_opt t.table label)

let entries t = List.rev_map (fun l -> (l, of_label t l)) t.order

let merge_into dst src = List.iter (fun (l, c) -> add dst l c) (entries src)
