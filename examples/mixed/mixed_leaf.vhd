-- VHDL child of the mixed-language fixture (see mixed_top.v).  The
-- architecture closes with a bare `end architecture;`, which is legal VHDL.
library ieee;
use ieee.std_logic_1164.all;

entity mixed_leaf is
  generic (WIDTH : natural := 8);
  port (
    clk : in  std_logic;
    d   : in  std_logic_vector(WIDTH-1 downto 0);
    q   : out std_logic_vector(WIDTH-1 downto 0)
  );
end entity;

architecture rtl of mixed_leaf is
begin
  process (clk)
  begin
    if rising_edge(clk) then
      q <= d;
    end if;
  end process;
end architecture;
